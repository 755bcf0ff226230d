#ifndef CONCEALER_NET_CLIENT_H_
#define CONCEALER_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "concealer/types.h"
#include "net/wire_format.h"
#include "service/retry.h"

namespace concealer {
namespace net {

struct ClientOptions {
  /// TCP connect() budget.
  uint64_t connect_timeout_ms = 5'000;
  /// Default per-call budget (send + wait + receive) when the call does
  /// not set its own. Also becomes the wire deadline the server sheds
  /// against, so a timed-out client never leaves the server burning
  /// enclave cycles for an answer nobody will read.
  uint64_t call_timeout_ms = 30'000;
  /// Largest response frame the client will buffer.
  uint64_t max_frame_bytes = 64ull << 20;
};

struct CallOptions {
  /// Absolute wall-clock deadline (ms since unix epoch); 0 = derive from
  /// timeout_ms / the client default.
  uint64_t deadline_unix_ms = 0;
  /// Relative budget for this call; 0 = ClientOptions::call_timeout_ms.
  uint64_t timeout_ms = 0;
};

/// Blocking, single-connection client for the framed wire protocol
/// (net/wire_format.h). One request is in flight at a time; responses are
/// matched to calls by the echoed request id. Every failure that leaves
/// the connection state unknowable (send/recv error, timeout mid-frame,
/// torn response) disconnects fail-closed and surfaces as kUnavailable,
/// which is exactly the code the retry layer (service/retry.h) treats as
/// "try again" — RetryQuery below redials transparently.
///
/// All socket I/O goes through the net_fault wrappers, so the wire fault
/// shim tears and stalls client traffic too.
///
/// Not thread-safe: one client per thread (connections are cheap; the
/// bench opens 64).
class ConcealerClient {
 public:
  explicit ConcealerClient(ClientOptions options = {});
  ~ConcealerClient();

  ConcealerClient(const ConcealerClient&) = delete;
  ConcealerClient& operator=(const ConcealerClient&) = delete;
  /// Movable so clients can live in containers (the bench opens 64) and
  /// be returned from factory helpers; the moved-from client is
  /// disconnected with no redial target.
  ConcealerClient(ConcealerClient&& other) noexcept;
  ConcealerClient& operator=(ConcealerClient&& other) noexcept;

  /// Dials host:port (numeric IPv4) within connect_timeout_ms.
  Status Connect(const std::string& host, uint16_t port);
  /// Redials the last Connect target. FailedPrecondition before any
  /// Connect.
  Status Reconnect();
  bool connected() const { return fd_ >= 0; }
  void Disconnect();

  // --- RPC surface ------------------------------------------------------
  // Statuses from the server come back code-faithful (wire mapping in
  // common/status.cc), including the retry-after hint on Unavailable.

  StatusOr<std::string> OpenSession(const std::string& tenant_id,
                                    const std::string& user_id, Slice proof,
                                    const CallOptions& call = {});
  Status CloseSession(const std::string& tenant_id, const std::string& token,
                      const CallOptions& call = {});
  StatusOr<QueryResult> Query(const std::string& tenant_id,
                              const std::string& token,
                              const concealer::Query& query,
                              const CallOptions& call = {});
  /// ExecuteEncrypted over the wire: the result ciphertext, decryptable
  /// only with the session user's proof (OpenResult,
  /// concealer/result_seal.h).
  StatusOr<Bytes> QueryEncrypted(const std::string& tenant_id,
                                 const std::string& token,
                                 const concealer::Query& query,
                                 const CallOptions& call = {});
  /// Single-tenant batch; results[i] matches queries[i], per-query
  /// failures stay in their slot.
  StatusOr<std::vector<StatusOr<QueryResult>>> QueryBatch(
      const std::string& tenant_id, const std::string& token,
      const std::vector<concealer::Query>& queries,
      const CallOptions& call = {});
  Status IngestEpoch(const std::string& tenant_id, const EncryptedEpoch& epoch,
                     const CallOptions& call = {});
  StatusOr<HealthInfo> Health(const CallOptions& call = {});

  // --- Admin plane (server must run with allow_admin) -------------------

  Status CreateTenant(const std::string& tenant_id,
                      const ConcealerConfig& config, Slice sk,
                      uint32_t qos_weight = 1, uint32_t qos_max_inflight = 0,
                      const CallOptions& call = {});
  Status LoadRegistry(const std::string& tenant_id, Slice encrypted_registry,
                      const CallOptions& call = {});
  Status SetDynamicMode(const std::string& tenant_id, bool dynamic,
                        const CallOptions& call = {});

  /// The reconnect-aware retry loop: rides out admission backpressure, a
  /// draining server's Unavailable, AND connection loss (server restart)
  /// — each disconnected attempt redials first. Per-attempt deadlines
  /// still apply; the retry budget composes via RetryOptions.
  StatusOr<QueryResult> RetryQuery(const std::string& tenant_id,
                                   const std::string& token,
                                   const concealer::Query& query,
                                   const RetryOptions& retry = {},
                                   const CallOptions& call = {});

 private:
  /// One request/response round trip; disconnects on any wire failure.
  StatusOr<Bytes> Call(MsgType type, const std::string& tenant_id,
                       Slice payload, const CallOptions& call);
  Status SendAll(Slice data, uint64_t deadline_mono_ms);
  Status RecvFrameBody(Bytes* body, uint64_t deadline_mono_ms);
  /// Waits for readability/writability within the deadline.
  Status WaitFd(bool want_write, uint64_t deadline_mono_ms);

  ClientOptions options_;
  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  bool dialed_ = false;  // Reconnect target known.
  uint64_t next_request_id_ = 1;
  Bytes recv_buf_;  // Spillover past the current frame (pipelined peers).
};

}  // namespace net
}  // namespace concealer

#endif  // CONCEALER_NET_CLIENT_H_
