// remote_trainer: the quickstart training loop, out of process.
//
// The point of the SandApi split (DESIGN.md §13): this file's TrainLoop is
// written against SandApi and never mentions a transport. Handed a SandFs
// it is the quickstart example; handed a SandClient (as main does here) the
// same loop trains against a sand_server in another process:
//
//   build/tools/sand_server --socket /tmp/sand.sock &
//   build/examples/remote_trainer --socket /tmp/sand.sock --tenant alpha
//
// With --depth N (N > 1) the loop overlaps its reads: it keeps N batches
// in flight on the pipelined v2 protocol via ReadAllSharedAsync and
// consumes them as they complete — read-ahead without threads, the way a
// fleet trainer hides the server round trip.
//
// RESOURCE_EXHAUSTED replies are the server's admission control pacing us
// (pool backpressure or a tenant quota); the loop backs off and retries,
// which is the intended client behavior.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <chrono>
#include <deque>
#include <string>
#include <thread>

#include "src/core/batch_format.h"
#include "src/graph/view.h"
#include "src/net/sand_client.h"

using namespace sand;

namespace {

// The Fig. 6 loop against the abstract API: open / read / getxattr / close.
// Returns batches served, or -1 on a non-retryable error.
int TrainLoop(SandApi& api, const std::string& task, int epochs, int iters) {
  auto session = api.Open("/" + task);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.status().ToString().c_str());
    return -1;
  }
  int batches = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int iter = 0; iter < iters; ++iter) {
      std::string path = ViewPath::Batch(task, epoch, iter).Format();
      for (int attempt = 0;; ++attempt) {
        auto fd = api.Open(path);
        Result<SharedBytes> batch = fd.ok() ? api.ReadAllShared(*fd)
                                            : Result<SharedBytes>(fd.status());
        if (batch.ok()) {
          std::string shape = api.GetXattr(*fd, "shape").ValueOr("?");
          (void)api.Close(*fd);
          auto header = ParseBatchHeader(**batch);
          if (!header.ok()) {
            std::fprintf(stderr, "bad batch %s: %s\n", path.c_str(),
                         header.status().ToString().c_str());
            return -1;
          }
          std::printf("epoch %d iter %d: %-20s %8zu bytes  shape=%s\n", epoch, iter,
                      path.c_str(), (*batch)->size(), shape.c_str());
          ++batches;
          break;  // <-- model forward/backward/step would go here
        }
        if (fd.ok()) {
          (void)api.Close(*fd);
        }
        if (batch.status().code() == ErrorCode::kResourceExhausted && attempt < 50) {
          // Admission control said "not now", not "no": back off and retry.
          std::this_thread::sleep_for(std::chrono::milliseconds(5 * (attempt + 1)));
          continue;
        }
        std::fprintf(stderr, "read %s: %s\n", path.c_str(),
                     batch.status().ToString().c_str());
        return -1;
      }
    }
  }
  (void)api.Close(*session);
  return batches;
}

// The same loop with a read-ahead window: up to `depth` ReadAllSharedAsync
// requests ride the pipelined connection at once, and the oldest is
// consumed (header check + print, where the model step would go) while the
// rest keep materializing. Refused reads back off and reissue without
// stalling the batches already in flight.
int PipelinedTrainLoop(SandApi& api, const std::string& task, int epochs, int iters,
                       int depth) {
  auto session = api.Open("/" + task);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.status().ToString().c_str());
    return -1;
  }
  struct Pending {
    int epoch = 0;
    int iter = 0;
    int fd = -1;
    std::string path;
    Future<SharedBytes> batch;
    int attempt = 0;
  };
  const int total = epochs * iters;
  std::deque<Pending> window;
  int next = 0;  // linear batch index over epochs x iters
  int batches = 0;

  // Opens batch `index` and puts its read in flight. A refusal here is
  // absorbed by the caller (the window simply stays shallower for a turn).
  auto issue = [&](int index, int attempt) -> Status {
    Pending pending;
    pending.epoch = index / iters;
    pending.iter = index % iters;
    pending.path = ViewPath::Batch(task, pending.epoch, pending.iter).Format();
    pending.attempt = attempt;
    auto fd = api.Open(pending.path);
    if (!fd.ok()) {
      return fd.status();
    }
    pending.fd = *fd;
    pending.batch = api.ReadAllSharedAsync(*fd);
    window.push_back(std::move(pending));
    return Status::Ok();
  };

  while (batches < total) {
    while (next < total && static_cast<int>(window.size()) < depth) {
      Status status = issue(next, 0);
      if (status.ok()) {
        ++next;
        continue;
      }
      if (status.code() != ErrorCode::kResourceExhausted) {
        std::fprintf(stderr, "open: %s\n", status.ToString().c_str());
        return -1;
      }
      break;  // admission said "not now": drain what's in flight first
    }
    if (window.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    Pending head = std::move(window.front());
    window.pop_front();
    auto batch = head.batch.Get();
    if (batch.ok()) {
      std::string shape = api.GetXattr(head.fd, "shape").ValueOr("?");
      (void)api.Close(head.fd);
      auto header = ParseBatchHeader(**batch);
      if (!header.ok()) {
        std::fprintf(stderr, "bad batch %s: %s\n", head.path.c_str(),
                     header.status().ToString().c_str());
        return -1;
      }
      std::printf("epoch %d iter %d: %-20s %8zu bytes  shape=%s\n", head.epoch,
                  head.iter, head.path.c_str(), (*batch)->size(), shape.c_str());
      ++batches;  // <-- model forward/backward/step would go here
      continue;
    }
    (void)api.Close(head.fd);
    if (batch.status().code() != ErrorCode::kResourceExhausted || head.attempt >= 50) {
      std::fprintf(stderr, "read %s: %s\n", head.path.c_str(),
                   batch.status().ToString().c_str());
      return -1;
    }
    // Refused mid-window: back off, then put this batch back in flight
    // (the rest of the window keeps materializing server-side meanwhile).
    int index = head.epoch * iters + head.iter;
    for (int attempt = head.attempt + 1;; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * attempt));
      Status status = issue(index, attempt);
      if (status.ok()) {
        break;
      }
      if (status.code() != ErrorCode::kResourceExhausted || attempt >= 50) {
        std::fprintf(stderr, "open: %s\n", status.ToString().c_str());
        return -1;
      }
    }
  }
  (void)api.Close(*session);
  return batches;
}

}  // namespace

int main(int argc, char** argv) {
  net::SandClient::Options options;
  std::string task = "train";
  // Matches what the default sand_server dataset plans (8 videos, batches
  // of 4 clips -> 2 iterations per epoch).
  int epochs = 2;
  int iters = 2;
  int depth = 1;
  options.tenant = "alpha";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--socket" && value != nullptr) {
      options.unix_path = argv[++i];
    } else if (arg == "--tcp" && value != nullptr) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--tenant" && value != nullptr) {
      options.tenant = argv[++i];
    } else if (arg == "--task" && value != nullptr) {
      task = argv[++i];
    } else if (arg == "--epochs" && value != nullptr) {
      epochs = std::atoi(argv[++i]);
    } else if (arg == "--iters" && value != nullptr) {
      iters = std::atoi(argv[++i]);
    } else if (arg == "--depth" && value != nullptr) {
      depth = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s (--socket PATH | --tcp PORT) [--tenant TAG]\n"
                   "          [--task NAME] [--epochs N] [--iters N] [--depth N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.unix_path.empty() && options.port < 0) {
    std::fprintf(stderr, "%s: need --socket or --tcp\n", argv[0]);
    return 2;
  }

  auto client = net::SandClient::Connect(options);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  std::printf("connected as tenant '%s' (id %u, protocol v%u, depth %d)\n\n",
              options.tenant.c_str(), (*client)->tenant_id(),
              net::kProtocolVersion, depth);

  int batches = depth > 1 ? PipelinedTrainLoop(**client, task, epochs, iters, depth)
                          : TrainLoop(**client, task, epochs, iters);
  if (batches < 0) {
    return 1;
  }

  // The same wire also serves the control tree: read back what the server
  // accounted to this tenant.
  std::string metrics_path = "/.sand/tenants/" + options.tenant + "/metrics";
  if (auto fd = (*client)->Open(metrics_path); fd.ok()) {
    if (auto body = (*client)->ReadAllShared(*fd); body.ok()) {
      std::printf("\n%s:\n%.*s\n", metrics_path.c_str(),
                  static_cast<int>((*body)->size()),
                  reinterpret_cast<const char*>((*body)->data()));
    }
    (void)(*client)->Close(*fd);
  }
  std::printf("trained on %d batches over the wire\n", batches);
  return 0;
}
