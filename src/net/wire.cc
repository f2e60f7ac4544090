#include "src/net/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace sand {
namespace net {

namespace {

void PutLe(std::vector<uint8_t>& out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint64_t GetLe(const uint8_t* data, int bytes) {
  uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  return value;
}

bool WriteFull(int fd, const uint8_t* data, size_t count) {
  while (count > 0) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // EPIPE on this connection, not SIGPIPE terminating the whole
    // multi-tenant process. Every frame writer targets a socket.
    ssize_t n = ::send(fd, data, count, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    count -= static_cast<size_t>(n);
  }
  return true;
}

// Per-call cap on iovec entries (the kernel refuses more than IOV_MAX).
constexpr size_t kMaxIov = 64;

// Advances an iovec cursor past `taken` bytes that the kernel moved.
void AdvanceIov(iovec* iov, size_t count, size_t& first, size_t taken) {
  while (first < count && taken >= iov[first].iov_len) {
    taken -= iov[first].iov_len;
    ++first;
  }
  if (first < count) {
    iov[first].iov_base = static_cast<uint8_t*>(iov[first].iov_base) + taken;
    iov[first].iov_len -= taken;
  }
}

}  // namespace

void PutU8(std::vector<uint8_t>& out, uint8_t value) { out.push_back(value); }
void PutU16(std::vector<uint8_t>& out, uint16_t value) { PutLe(out, value, 2); }
void PutU32(std::vector<uint8_t>& out, uint32_t value) { PutLe(out, value, 4); }
void PutU64(std::vector<uint8_t>& out, uint64_t value) { PutLe(out, value, 8); }
void PutI32(std::vector<uint8_t>& out, int32_t value) {
  PutLe(out, static_cast<uint32_t>(value), 4);
}

void PutString(std::vector<uint8_t>& out, const std::string& value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& value) {
  PutU32(out, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

Status WireReader::Need(size_t count) {
  if (buffer_.size() - pos_ < count) {
    return OutOfRange("truncated wire payload");
  }
  return Status::Ok();
}

Result<uint8_t> WireReader::TakeU8() {
  SAND_RETURN_IF_ERROR(Need(1));
  return buffer_[pos_++];
}

Result<uint16_t> WireReader::TakeU16() {
  SAND_RETURN_IF_ERROR(Need(2));
  uint16_t value = static_cast<uint16_t>(GetLe(buffer_.data() + pos_, 2));
  pos_ += 2;
  return value;
}

Result<uint32_t> WireReader::TakeU32() {
  SAND_RETURN_IF_ERROR(Need(4));
  uint32_t value = static_cast<uint32_t>(GetLe(buffer_.data() + pos_, 4));
  pos_ += 4;
  return value;
}

Result<uint64_t> WireReader::TakeU64() {
  SAND_RETURN_IF_ERROR(Need(8));
  uint64_t value = GetLe(buffer_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

Result<int32_t> WireReader::TakeI32() {
  SAND_ASSIGN_OR_RETURN(uint32_t raw, TakeU32());
  return static_cast<int32_t>(raw);
}

Result<std::string> WireReader::TakeString() {
  SAND_ASSIGN_OR_RETURN(uint32_t size, TakeU32());
  SAND_RETURN_IF_ERROR(Need(size));
  std::string value(buffer_.begin() + static_cast<long>(pos_),
                    buffer_.begin() + static_cast<long>(pos_ + size));
  pos_ += size;
  return value;
}

Result<std::vector<uint8_t>> WireReader::TakeBytes() {
  SAND_ASSIGN_OR_RETURN(uint32_t size, TakeU32());
  SAND_RETURN_IF_ERROR(Need(size));
  std::vector<uint8_t> value(buffer_.begin() + static_cast<long>(pos_),
                             buffer_.begin() + static_cast<long>(pos_ + size));
  pos_ += size;
  return value;
}

std::vector<uint8_t> WireReader::TakeRest() {
  std::vector<uint8_t> rest(buffer_.begin() + static_cast<long>(pos_), buffer_.end());
  pos_ = buffer_.size();
  return rest;
}

Status WireReader::Skip(size_t count) {
  SAND_RETURN_IF_ERROR(Need(count));
  pos_ += count;
  return Status::Ok();
}

std::vector<uint8_t> EncodeOkHead() { return {0}; }

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(status.code()));
  const std::string& message = status.message();
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

Status DecodeResponseStatus(const std::vector<uint8_t>& response) {
  if (response.empty()) {
    return Internal("empty response frame");
  }
  uint8_t code = response[0];
  if (code != 0) {
    if (code > static_cast<uint8_t>(ErrorCode::kInternal)) {
      code = static_cast<uint8_t>(ErrorCode::kInternal);
    }
    std::string message(response.begin() + 1, response.end());
    return Status(static_cast<ErrorCode>(code),
                  message.empty() ? "remote error" : message);
  }
  return Status::Ok();
}

bool WriteFrame(int fd, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return false;
  }
  uint8_t header[4];
  uint32_t size = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(size >> (8 * i));
  }
  return WriteFull(fd, header, sizeof(header)) &&
         WriteFull(fd, payload.data(), payload.size());
}

bool WriteFrameScatter(int fd, const std::vector<uint8_t>& head,
                       std::span<const SharedBytes> bodies) {
  size_t total = head.size();
  for (const SharedBytes& body : bodies) {
    total += body != nullptr ? body->size() : 0;
  }
  if (total > kMaxFrameBytes) {
    return false;
  }
  uint8_t header[4];
  uint32_t size = static_cast<uint32_t>(total);
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(size >> (8 * i));
  }
  std::vector<iovec> iov;
  iov.reserve(2 + bodies.size());
  iov.push_back({header, sizeof(header)});
  iov.push_back({const_cast<uint8_t*>(head.data()), head.size()});
  for (const SharedBytes& body : bodies) {
    if (body != nullptr && !body->empty()) {
      iov.push_back({const_cast<uint8_t*>(body->data()), body->size()});
    }
  }
  size_t remaining = sizeof(header) + total;
  size_t first = 0;
  while (remaining > 0) {
    const size_t batch = std::min(iov.size() - first, kMaxIov);
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = batch;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    remaining -= static_cast<size_t>(n);
    AdvanceIov(iov.data(), iov.size(), first, static_cast<size_t>(n));
  }
  return true;
}

bool ReadExact(int fd, uint8_t* data, size_t count) {
  while (count > 0) {
    ssize_t n = ::read(fd, data, count);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // EOF or error
    }
    data += n;
    count -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadScatter(int fd, std::span<std::vector<uint8_t>> buffers) {
  std::vector<iovec> iov;
  iov.reserve(buffers.size());
  size_t remaining = 0;
  for (std::vector<uint8_t>& buffer : buffers) {
    if (!buffer.empty()) {
      iov.push_back({buffer.data(), buffer.size()});
      remaining += buffer.size();
    }
  }
  size_t first = 0;
  while (remaining > 0) {
    ssize_t n = ::readv(fd, iov.data() + first,
                        static_cast<int>(std::min(iov.size() - first, kMaxIov)));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // EOF or error
    }
    remaining -= static_cast<size_t>(n);
    AdvanceIov(iov.data(), iov.size(), first, static_cast<size_t>(n));
  }
  return true;
}

bool ReadFrame(int fd, std::vector<uint8_t>& payload) {
  uint8_t header[4];
  if (!ReadExact(fd, header, sizeof(header))) {
    return false;
  }
  uint32_t size = static_cast<uint32_t>(GetLe(header, 4));
  if (size > kMaxFrameBytes) {
    return false;
  }
  payload.resize(size);
  return size == 0 || ReadExact(fd, payload.data(), size);
}

Result<int> ListenUnix(const std::string& path, int backlog) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return InvalidArgument("bad unix socket path: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Internal("bind " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) < 0) {
    Status status = Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> ListenTcp(int port, int backlog, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Internal("bind :" + std::to_string(port) + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) < 0) {
    Status status = Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return InvalidArgument("bad unix socket path: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Unavailable("connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host (IPv4 literal expected): " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Unavailable("connect " + host + ":" + std::to_string(port) +
                                        ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  TuneStreamSocket(fd, /*keepalive=*/false);
  return fd;
}

void TuneStreamSocket(int fd, bool keepalive) {
  int one = 1;
  // TCP_NODELAY: a pipelined client sends many small request frames
  // back-to-back; letting Nagle batch them behind delayed ACKs turns
  // sub-millisecond round trips into 40 ms ones. Fails with ENOTSOCK /
  // EOPNOTSUPP on unix sockets and pipes, which is fine — those have no
  // Nagle to disable.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (keepalive) {
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  }
}

Result<uint32_t> PeerUid(int fd) {
  ucred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) {
    return FailedPrecondition(std::string("no peer credential: ") +
                              std::strerror(errno));
  }
  return static_cast<uint32_t>(cred.uid);
}

}  // namespace net
}  // namespace sand
