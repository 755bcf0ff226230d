#include "concealer/client.h"

#include "concealer/result_seal.h"
#include "enclave/registry.h"

namespace concealer {

Client::Client(std::string user_id, Bytes secret)
    : user_id_(std::move(user_id)), secret_(std::move(secret)) {
  proof_ = Registry::MakeProof(secret_, user_id_);
}

StatusOr<QueryResult> Client::Run(ServiceProvider* sp,
                                  const Query& query) const {
  StatusOr<Bytes> blob = sp->ExecuteForUser(user_id_, proof_, query);
  if (!blob.ok()) return blob.status();
  return OpenResult(*blob, proof_, user_id_);
}

}  // namespace concealer
