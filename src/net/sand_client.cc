#include "src/net/sand_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace sand {
namespace net {

namespace {

constexpr size_t kRequestIdBytes = 8;

// A request frame's head: a zeroed request-id slot, which Issue fills in
// place so the frame is never rebuilt, then the command byte.
std::vector<uint8_t> RequestHead(Command command) {
  std::vector<uint8_t> head(kRequestIdBytes, 0);
  head.push_back(static_cast<uint8_t>(command));
  return head;
}

}  // namespace

Result<std::unique_ptr<SandClient>> SandClient::Connect(const Options& options) {
  if (options.tenant.empty()) {
    return InvalidArgument("SandClient::Connect: tenant tag is required");
  }
  SAND_ASSIGN_OR_RETURN(int socket_fd, options.unix_path.empty()
                                           ? ConnectTcp(options.host, options.port)
                                           : ConnectUnix(options.unix_path));
  std::unique_ptr<SandClient> client(new SandClient(socket_fd));
  client->StartReader();
  // HELLO is an ordinary request; on a refusal the client is destroyed,
  // which hangs up.
  std::vector<uint8_t> hello = RequestHead(Command::kHello);
  PutU16(hello, kProtocolVersion);
  PutString(hello, options.tenant);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(client->Call(std::move(hello), response));
  WireReader reader(response);
  (void)reader.TakeU8();  // status head, already checked
  SAND_ASSIGN_OR_RETURN(client->tenant_id_, reader.TakeU32());
  return client;
}

SandClient::~SandClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    if (socket_fd_ >= 0) {
      // Wake the reader with EOF; it fails every pending request with
      // UNAVAILABLE, so futures held by callers that outlive this client
      // resolve instead of hanging.
      ::shutdown(socket_fd_, SHUT_RDWR);
    }
  }
  if (reader_.joinable()) {
    reader_.join();
  }
  if (socket_fd_ >= 0) {
    ::close(socket_fd_);
  }
}

void SandClient::StartReader() {
  reader_ = std::thread([this] { ReaderLoop(); });
}

void SandClient::ReaderLoop() {
  Status failure = Unavailable("server connection lost");
  std::vector<uint8_t> frame;
  while (ReadFrame(socket_fd_, frame)) {
    WireReader reader(frame);
    auto id = reader.TakeU64();
    if (!id.ok()) {
      failure = Unavailable("malformed response frame: missing request id");
      break;
    }
    std::vector<uint8_t> payload = reader.TakeRest();
    Promise<std::vector<uint8_t>> promise;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(*id);
      if (it == pending_.end()) {
        // A response we never asked for (or asked for twice): the stream
        // can no longer be trusted to pair responses with requests.
        failure = Unavailable("response for unknown request id " +
                              std::to_string(*id) + "; stream desynchronized");
        break;
      }
      promise = std::move(it->second);
      pending_.erase(it);
    }
    // Outside the lock: Set runs continuations inline.
    promise.Set(std::move(payload));
    frame.clear();
  }
  Poison(failure);
}

void SandClient::Poison(const Status& status) {
  std::map<uint64_t, Promise<std::vector<uint8_t>>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    orphans.swap(pending_);
    if (socket_fd_ >= 0) {
      ::shutdown(socket_fd_, SHUT_RDWR);
    }
  }
  for (auto& [id, promise] : orphans) {
    (void)id;
    promise.Set(Result<std::vector<uint8_t>>(status));
  }
}

Future<std::vector<uint8_t>> SandClient::Issue(std::vector<uint8_t> request) {
  Promise<std::vector<uint8_t>> promise;
  Future<std::vector<uint8_t>> future = promise.future();
  bool lost = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dead_ && socket_fd_ >= 0) {
      const uint64_t id = next_request_id_++;
      for (size_t i = 0; i < kRequestIdBytes; ++i) {
        request[i] = static_cast<uint8_t>(id >> (8 * i));
      }
      // Register before writing: the response cannot legally outrun an
      // entry the reader can match it to.
      auto it = pending_.emplace(id, std::move(promise)).first;
      if (WriteFrame(socket_fd_, request)) {
        return future;
      }
      // A half-written request poisons the stream; the reader (woken by
      // the shutdown) fails the other pending requests.
      promise = std::move(it->second);
      pending_.erase(it);
      dead_ = true;
      ::shutdown(socket_fd_, SHUT_RDWR);
      lost = true;
    }
  }
  promise.Set(Result<std::vector<uint8_t>>(
      Unavailable(lost ? "server connection lost" : "connection closed")));
  return future;
}

Status SandClient::Call(std::vector<uint8_t> request, std::vector<uint8_t>& response) {
  Result<std::vector<uint8_t>> result = Issue(std::move(request)).Get();
  if (!result.ok()) {
    return result.status();
  }
  response = std::move(*result);
  return DecodeResponseStatus(response);
}

Result<int> SandClient::Open(const std::string& path, const OpenOptions& options) {
  SAND_RETURN_IF_ERROR(options.Validate());
  std::vector<uint8_t> request = RequestHead(Command::kOpen);
  PutString(request, path);
  PutBytes(request, options.Serialize());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(int fd, reader.TakeI32());
  return fd;
}

Result<size_t> SandClient::Read(int fd, std::span<uint8_t> buffer) {
  std::vector<uint8_t> request = RequestHead(Command::kRead);
  PutI32(request, fd);
  PutU64(request, buffer.size());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  size_t count = std::min(data.size(), buffer.size());
  std::memcpy(buffer.data(), data.data(), count);
  return count;
}

Result<size_t> SandClient::PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) {
  std::vector<uint8_t> request = RequestHead(Command::kPRead);
  PutI32(request, fd);
  PutU64(request, offset);
  PutU64(request, buffer.size());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  size_t count = std::min(data.size(), buffer.size());
  std::memcpy(buffer.data(), data.data(), count);
  return count;
}

Result<SharedBytes> SandClient::ReadAllShared(int fd) {
  return ReadAllSharedAsync(fd).Get();
}

Future<SharedBytes> SandClient::ReadAllSharedAsync(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kReadAll);
  PutI32(request, fd);
  Future<std::vector<uint8_t>> raw = Issue(std::move(request));
  // Map the raw payload onto SharedBytes on whichever thread resolves it
  // (the demux reader in steady state); the parse is one bounds check and
  // the single off-the-wire copy.
  auto promise = std::make_shared<Promise<SharedBytes>>();
  Future<SharedBytes> future = promise->future();
  raw.OnReady([promise](const Result<std::vector<uint8_t>>& result) {
    if (!result.ok()) {
      promise->Set(result.status());
      return;
    }
    Status head = DecodeResponseStatus(*result);
    if (!head.ok()) {
      promise->Set(head);
      return;
    }
    WireReader reader(*result);
    (void)reader.TakeU8();
    auto data = reader.TakeBytes();
    if (!data.ok()) {
      promise->Set(data.status());
      return;
    }
    promise->Set(std::make_shared<const std::vector<uint8_t>>(std::move(*data)));
  });
  return future;
}

Result<uint64_t> SandClient::SizeOf(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kSizeOf);
  PutI32(request, fd);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return size;
}

Result<std::string> SandClient::GetXattr(int fd, const std::string& name) {
  std::vector<uint8_t> request = RequestHead(Command::kGetXattr);
  PutI32(request, fd);
  PutString(request, name);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::string value, reader.TakeString());
  return value;
}

Result<std::vector<std::string>> SandClient::ListDir(const std::string& path) {
  std::vector<uint8_t> request = RequestHead(Command::kListDir);
  PutString(request, path);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint32_t count, reader.TakeU32());
  std::vector<std::string> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SAND_ASSIGN_OR_RETURN(std::string entry, reader.TakeString());
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status SandClient::Close(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kClose);
  PutI32(request, fd);
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

Status SandClient::PutObject(const std::string& key, std::span<const uint8_t> data) {
  std::vector<uint8_t> request = RequestHead(Command::kPutObject);
  PutString(request, key);
  PutU32(request, static_cast<uint32_t>(data.size()));
  request.insert(request.end(), data.begin(), data.end());
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

Result<SharedBytes> SandClient::GetObjectShared(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kGetObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  return std::make_shared<const std::vector<uint8_t>>(std::move(data));
}

Result<SandClient::ObjectStat> SandClient::StatObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kStatObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint8_t exists, reader.TakeU8());
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return ObjectStat{exists != 0, size};
}

Status SandClient::DeleteObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kDeleteObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

}  // namespace net
}  // namespace sand
