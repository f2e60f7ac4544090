#include "src/net/sand_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <optional>
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
  Response response;
  SAND_RETURN_IF_ERROR(client->Call(std::move(hello), response));
  WireReader reader(response.head);
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
  // u32 frame length | u64 request id: read first, so the payload can be
  // parsed in the shape its request expects.
  std::vector<uint8_t> prefix(4 + kRequestIdBytes);
  while (ReadExact(socket_fd_, prefix.data(), prefix.size())) {
    WireReader reader(prefix);
    const uint32_t size = *reader.TakeU32();
    const uint64_t id = *reader.TakeU64();
    if (size < kRequestIdBytes || size > kMaxFrameBytes) {
      failure = Unavailable("malformed response frame: length " + std::to_string(size));
      break;
    }
    std::optional<Pending> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(id);
      if (it == pending_.end()) {
        // A response we never asked for (or asked for twice): the stream
        // can no longer be trusted to pair responses with requests.
        failure = Unavailable("response for unknown request id " + std::to_string(id) +
                              "; stream desynchronized");
        break;
      }
      pending.emplace(std::move(it->second));
      pending_.erase(it);
    }
    Result<Response> response = ReadPayload(size - kRequestIdBytes, pending->shape);
    if (!response.ok()) {
      failure = response.status();
      pending->promise.Set(failure);
      break;
    }
    // Outside the lock: Set runs continuations inline.
    pending->promise.Set(response.TakeValue());
  }
  Poison(failure);
}

Result<SandClient::Response> SandClient::ReadPayload(size_t size, Shape shape) {
  const Status lost = Unavailable("server connection lost");
  const Status malformed = Unavailable("malformed response frame");
  Response response;
  // Appends the payload's next `count` bytes to the head.
  auto take = [&](size_t count) -> Status {
    if (count > size) {
      return malformed;
    }
    const size_t start = response.head.size();
    response.head.resize(start + count);
    if (!ReadExact(socket_fd_, response.head.data() + start, count)) {
      return lost;
    }
    size -= count;
    return Status::Ok();
  };
  // An inline payload, and the error answer of any shape, is read whole.
  if (shape == Shape::kInline || size == 0) {
    SAND_RETURN_IF_ERROR(take(size));
    return response;
  }
  SAND_RETURN_IF_ERROR(take(1));
  if (response.head[0] != 0) {
    SAND_RETURN_IF_ERROR(take(size));
    return response;
  }
  SAND_RETURN_IF_ERROR(take(4));
  WireReader reader(response.head);
  (void)reader.Skip(1);
  const uint32_t word = *reader.TakeU32();
  std::vector<std::vector<uint8_t>> bodies;
  if (shape == Shape::kBulk) {
    // ok | u32 size | body: the body is the rest of the frame.
    if (word != size) {
      return malformed;
    }
    bodies.emplace_back(size);
  } else {
    // ok | u32 count | count x (u8 status | u32 size) | found objects.
    if (word > kMaxObjectsPerRequest) {
      return malformed;
    }
    SAND_RETURN_IF_ERROR(take(static_cast<size_t>(word) * 5));
    uint64_t total = 0;
    for (uint32_t i = 0; i < word; ++i) {
      const uint8_t status = *reader.TakeU8();
      const uint32_t length = *reader.TakeU32();
      // Only a found object carries bytes, and they must fit the frame.
      if (status != 0 ? length != 0 : length > size - total) {
        return malformed;
      }
      if (status == 0) {
        total += length;
        bodies.emplace_back(length);
      }
    }
    if (total != size) {
      return malformed;
    }
  }
  if (!ReadScatter(socket_fd_, bodies)) {
    return lost;
  }
  response.bodies.reserve(bodies.size());
  for (std::vector<uint8_t>& body : bodies) {
    response.bodies.push_back(MakeSharedBytes(std::move(body)));
  }
  return response;
}

void SandClient::Poison(const Status& status) {
  std::map<uint64_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    orphans.swap(pending_);
    if (socket_fd_ >= 0) {
      ::shutdown(socket_fd_, SHUT_RDWR);
    }
  }
  for (auto& [id, pending] : orphans) {
    (void)id;
    pending.promise.Set(Result<Response>(status));
  }
}

Future<SandClient::Response> SandClient::Issue(std::vector<uint8_t> request, Shape shape) {
  Promise<Response> promise;
  Future<Response> future = promise.future();
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
      auto it = pending_.emplace(id, Pending{shape, std::move(promise)}).first;
      if (WriteFrame(socket_fd_, request)) {
        return future;
      }
      // A half-written request poisons the stream; the reader (woken by
      // the shutdown) fails the other pending requests.
      promise = std::move(it->second.promise);
      pending_.erase(it);
      dead_ = true;
      ::shutdown(socket_fd_, SHUT_RDWR);
      lost = true;
    }
  }
  promise.Set(Result<Response>(
      Unavailable(lost ? "server connection lost" : "connection closed")));
  return future;
}

Status SandClient::Call(std::vector<uint8_t> request, Response& response, Shape shape) {
  Result<Response> result = Issue(std::move(request), shape).Get();
  if (!result.ok()) {
    return result.status();
  }
  response = result.TakeValue();
  return DecodeResponseStatus(response.head);
}

Result<int> SandClient::Open(const std::string& path, const OpenOptions& options) {
  std::vector<uint8_t> request = RequestHead(Command::kOpen);
  PutString(request, path);
  PutBytes(request, options.Serialize());
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(int fd, reader.TakeI32());
  return fd;
}

Result<size_t> SandClient::Read(int fd, std::span<uint8_t> buffer) {
  std::vector<uint8_t> request = RequestHead(Command::kRead);
  PutI32(request, fd);
  PutU64(request, buffer.size());
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
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
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
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
  Future<Response> raw = Issue(std::move(request), Shape::kBulk);
  // The reader already read the body into its own buffer; resolving hands
  // that buffer out (on whichever thread resolves it, the demux reader in
  // steady state).
  auto promise = std::make_shared<Promise<SharedBytes>>();
  Future<SharedBytes> future = promise->future();
  raw.OnReady([promise](const Result<Response>& result) {
    if (!result.ok()) {
      promise->Set(result.status());
      return;
    }
    Status head = DecodeResponseStatus(result->head);
    if (!head.ok()) {
      promise->Set(head);
      return;
    }
    promise->Set(result->bodies.front());
  });
  return future;
}

Result<uint64_t> SandClient::SizeOf(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kSizeOf);
  PutI32(request, fd);
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return size;
}

Result<std::string> SandClient::GetXattr(int fd, const std::string& name) {
  std::vector<uint8_t> request = RequestHead(Command::kGetXattr);
  PutI32(request, fd);
  PutString(request, name);
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::string value, reader.TakeString());
  return value;
}

Result<std::vector<std::string>> SandClient::ListDir(const std::string& path) {
  std::vector<uint8_t> request = RequestHead(Command::kListDir);
  PutString(request, path);
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
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
  Response response;
  return Call(std::move(request), response);
}

Status SandClient::PutObject(const std::string& key, std::span<const uint8_t> data) {
  std::vector<uint8_t> request = RequestHead(Command::kPutObject);
  PutString(request, key);
  PutU32(request, static_cast<uint32_t>(data.size()));
  request.insert(request.end(), data.begin(), data.end());
  Response response;
  return Call(std::move(request), response);
}

Result<std::vector<Result<SharedBytes>>> SandClient::GetObjects(
    std::span<const std::string> keys) {
  std::vector<Result<SharedBytes>> results(keys.size());
  // Indices of the keys still to ask for: every key at first, then the
  // ones past a request's key limit or deferred by the server.
  std::vector<size_t> pending(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    pending[i] = i;
  }
  while (!pending.empty()) {
    const size_t count = std::min<size_t>(pending.size(), kMaxObjectsPerRequest);
    std::vector<uint8_t> request = RequestHead(Command::kGetObjects);
    PutU32(request, static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
      PutString(request, keys[pending[i]]);
    }
    if (request.size() > kMaxFrameBytes) {
      // Refused here: a frame the server would not read poisons the
      // connection every caller shares.
      return InvalidArgument("object keys overflow a request frame");
    }
    Response response;
    SAND_RETURN_IF_ERROR(Call(std::move(request), response, Shape::kObjects));
    WireReader reader(response.head);
    (void)reader.TakeU8();
    if (*reader.TakeU32() != count) {
      return Internal("object response answers a different number of keys");
    }
    std::vector<size_t> later(pending.begin() + static_cast<long>(count), pending.end());
    size_t body = 0;
    for (size_t i = 0; i < count; ++i) {
      const size_t index = pending[i];
      const uint8_t status = *reader.TakeU8();
      (void)reader.TakeU32();
      if (status == 0) {
        results[index] = response.bodies[body++];
      } else if (status == kObjectDeferred) {
        later.push_back(index);
      } else if (status == static_cast<uint8_t>(ErrorCode::kNotFound)) {
        results[index] = NotFound("no object: " + keys[index]);
      } else {
        const ErrorCode code = status > static_cast<uint8_t>(ErrorCode::kInternal)
                                   ? ErrorCode::kInternal
                                   : static_cast<ErrorCode>(status);
        results[index] = Status(code, std::string("peer answered ") + ErrorCodeName(code) +
                                          " for " + keys[index]);
      }
    }
    if (later.size() == pending.size()) {
      // The server guarantees the first found key a place; a response that
      // answered nothing would loop forever.
      return Internal("object response deferred every key");
    }
    pending = std::move(later);
  }
  return results;
}

Result<SandClient::ObjectStat> SandClient::StatObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kStatObject);
  PutString(request, key);
  Response response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response.head);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint8_t exists, reader.TakeU8());
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return ObjectStat{exists != 0, size};
}

Status SandClient::DeleteObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kDeleteObject);
  PutString(request, key);
  Response response;
  return Call(std::move(request), response);
}

}  // namespace net
}  // namespace sand
