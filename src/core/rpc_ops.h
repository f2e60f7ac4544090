// Out-of-process custom augmentation (paper §5.5).
//
// "Supporting external libraries often involves running processes with
//  dependencies or runtimes not present in the core environment. SAND
//  addresses this by offering an RPC service mechanism, enabling custom
//  functions to be executed in separate processes."
//
// SubprocessOpRunner owns one worker process and speaks a framed protocol
// with it over one AF_UNIX stream socket pair, in src/net/wire.h's frames
// (u32 length | payload, at most kMaxFrameBytes):
//
//   request  : trace-context header | serialized Frame (src/tensor/frame.h)
//   response : u8 status (0 = ok) | serialized Frame, or the error message
//
// Spawn() forks the worker (production deployments would exec a separate
// binary; the protocol is the boundary either way — RunOpWorkerLoop is the
// reusable server side). The runner's Apply() is thread-safe (serialized
// over the single socket) and registers cleanly as a CustomOpFn; once the
// worker has died it returns Unavailable.

#ifndef SAND_CORE_RPC_OPS_H_
#define SAND_CORE_RPC_OPS_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>

#include "src/core/executor.h"
#include "src/tensor/frame.h"

namespace sand {

// Server side: serves requests from fd_in, writes responses to fd_out (a
// socket; Spawn passes its end of the pair as both), returns when the peer
// closes its end. Runs inside the worker process.
void RunOpWorkerLoop(int fd_in, int fd_out, const CustomOpFn& fn);

class SubprocessOpRunner {
 public:
  // Forks a worker process that serves `fn` over the socket protocol.
  static Result<std::unique_ptr<SubprocessOpRunner>> Spawn(CustomOpFn fn);

  ~SubprocessOpRunner();  // closes the socket and reaps the worker

  SubprocessOpRunner(const SubprocessOpRunner&) = delete;
  SubprocessOpRunner& operator=(const SubprocessOpRunner&) = delete;

  // One round trip: send the frame, receive the transformed frame.
  Result<Frame> Apply(const Frame& input);

  // Registers `runner` (taking ownership) in the global registry under
  // `name`; the executor then transparently RPCs for OpKind::kCustom nodes
  // with that name.
  static Status RegisterAsCustomOp(const std::string& name,
                                   std::unique_ptr<SubprocessOpRunner> runner);

  pid_t worker_pid() const { return pid_; }
  uint64_t round_trips() const { return round_trips_; }

 private:
  SubprocessOpRunner(pid_t pid, int socket_fd) : pid_(pid), socket_fd_(socket_fd) {}

  pid_t pid_;
  int socket_fd_;
  std::mutex mutex_;
  uint64_t round_trips_ = 0;
};

}  // namespace sand

#endif  // SAND_CORE_RPC_OPS_H_
