#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/str_util.h"

namespace lipstick::service {

namespace {

/// Largest piece of a frame payload read (and allocated) at once.
constexpr size_t kReadChunkBytes = 64 * 1024;

/// Reads exactly `n` bytes. Returns the number of bytes read before EOF
/// (n on success), or -1 on a socket error.
ssize_t ReadFull(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

Status WriteFull(int fd, const char* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a SIGPIPE that
    // would kill the daemon.
    ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("socket write failed: ", std::strerror(errno)));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrame(int fd) {
  Status fault = FaultInjector::Fire(kFaultRead);
  if (!fault.ok()) return fault;
  char header[4];
  ssize_t got = ReadFull(fd, header, sizeof(header));
  if (got == 0) return Status::Aborted("peer closed connection");
  if (got != sizeof(header)) {
    return Status::IOError("short read on frame header");
  }
  uint32_t len = (static_cast<uint32_t>(static_cast<uint8_t>(header[0])) << 24) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(header[1])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(header[2])) << 8) |
                 static_cast<uint32_t>(static_cast<uint8_t>(header[3]));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrCat("frame length ", len, " exceeds limit ", kMaxFrameBytes));
  }
  // The payload arrives in bounded chunks and the buffer grows only as
  // bytes do, so a header alone cannot make the server allocate the
  // length it claims (up to kMaxFrameBytes per connection).
  std::string payload;
  while (payload.size() < len) {
    size_t at = payload.size();
    size_t want = std::min<size_t>(len - at, kReadChunkBytes);
    payload.resize(at + want);
    if (ReadFull(fd, payload.data() + at, want) !=
        static_cast<ssize_t>(want)) {
      return Status::IOError("short read on frame payload");
    }
  }
  return payload;
}

Status WriteFrame(int fd, std::string_view payload) {
  LIPSTICK_RETURN_IF_ERROR(FaultInjector::Fire(kFaultWrite));
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds limit");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  // One contiguous send: splitting header and payload across two send()
  // calls interacts with Nagle + delayed ACK and costs ~40ms per frame.
  std::string frame;
  frame.reserve(sizeof(uint32_t) + payload.size());
  frame.push_back(static_cast<char>(len >> 24));
  frame.push_back(static_cast<char>(len >> 16));
  frame.push_back(static_cast<char>(len >> 8));
  frame.push_back(static_cast<char>(len));
  frame.append(payload);
  return WriteFull(fd, frame.data(), frame.size());
}

std::string_view ErrorCodeString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kTypeError: return "type_error";
    case StatusCode::kExecutionError: return "execution_error";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kAborted: return "cancelled";
  }
  return "internal";
}

StatusCode ErrorCodeFromString(std::string_view code) {
  if (code == "invalid_argument") return StatusCode::kInvalidArgument;
  if (code == "not_found") return StatusCode::kNotFound;
  if (code == "already_exists") return StatusCode::kAlreadyExists;
  if (code == "parse_error") return StatusCode::kParseError;
  if (code == "type_error") return StatusCode::kTypeError;
  if (code == "execution_error") return StatusCode::kExecutionError;
  if (code == "io_error") return StatusCode::kIOError;
  if (code == "deadline_exceeded") return StatusCode::kDeadlineExceeded;
  // "overloaded" is the admission-control rejection: a transient,
  // retryable condition, hence kUnavailable.
  if (code == "unavailable" || code == "overloaded") {
    return StatusCode::kUnavailable;
  }
  if (code == "cancelled") return StatusCode::kAborted;
  return StatusCode::kInternal;
}

std::string ErrorLine(std::string_view code, std::string_view message) {
  return StrCat("error: ", code, ": ", message);
}

std::string ErrorLine(const Status& status) {
  return ErrorLine(ErrorCodeString(status.code()), status.message());
}

obs::JsonValue MakeRequest(std::string_view op,
                           const std::vector<std::string>& args,
                           std::string_view graph, double deadline_ms) {
  obs::JsonValue req = obs::JsonValue::Object();
  req.Set("op", obs::JsonValue::Str(std::string(op)));
  obs::JsonValue arr = obs::JsonValue::Array();
  for (const std::string& a : args) arr.Push(obs::JsonValue::Str(a));
  req.Set("args", std::move(arr));
  if (!graph.empty()) {
    req.Set("graph", obs::JsonValue::Str(std::string(graph)));
  }
  if (deadline_ms > 0) {
    req.Set("deadline_ms", obs::JsonValue::Number(deadline_ms));
  }
  return req;
}

obs::JsonValue OkResponse(std::string_view text) {
  obs::JsonValue resp = obs::JsonValue::Object();
  resp.Set("ok", obs::JsonValue::Bool(true));
  resp.Set("text", obs::JsonValue::Str(std::string(text)));
  return resp;
}

obs::JsonValue ErrorResponse(std::string_view code, std::string_view message) {
  obs::JsonValue resp = obs::JsonValue::Object();
  resp.Set("ok", obs::JsonValue::Bool(false));
  obs::JsonValue err = obs::JsonValue::Object();
  err.Set("code", obs::JsonValue::Str(std::string(code)));
  err.Set("message", obs::JsonValue::Str(std::string(message)));
  resp.Set("error", std::move(err));
  return resp;
}

Result<std::string> ResponseToResult(const obs::JsonValue& doc) {
  const obs::JsonValue* ok = doc.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::Internal("malformed response: missing 'ok'");
  }
  if (ok->bool_value()) {
    const obs::JsonValue* text = doc.Find("text");
    if (text == nullptr || !text->is_string()) {
      return Status::Internal("malformed response: missing 'text'");
    }
    return text->str();
  }
  const obs::JsonValue* err = doc.Find("error");
  if (err == nullptr || !err->is_object()) {
    return Status::Internal("malformed response: missing 'error'");
  }
  const obs::JsonValue* code = err->Find("code");
  const obs::JsonValue* message = err->Find("message");
  return Status(
      ErrorCodeFromString(code != nullptr && code->is_string() ? code->str()
                                                               : ""),
      message != nullptr && message->is_string() ? message->str()
                                                 : "unknown server error");
}

}  // namespace lipstick::service
