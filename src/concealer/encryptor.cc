#include "concealer/encryptor.h"

#include "common/random.h"
#include "concealer/grid.h"
#include "concealer/wire.h"
#include "crypto/det_cipher.h"
#include "crypto/kdf.h"
#include "crypto/rand_cipher.h"

namespace concealer {

EpochEncryptor::EpochEncryptor(const ConcealerConfig& config, Bytes sk)
    : config_(config), sk_(std::move(sk)) {
  const Status st = hash_.SetKey(sk_);
  (void)st;  // Only fails on an empty key; constructor contract.
}

StatusOr<EncryptedEpoch> EpochEncryptor::EncryptEpoch(
    uint64_t epoch_id, uint64_t epoch_start,
    const std::vector<PlainTuple>& tuples) const {
  // Stage 1: setup.
  StatusOr<Grid> grid_or =
      Grid::Create(config_, &hash_, epoch_id, epoch_start);
  if (!grid_or.ok()) return grid_or.status();
  const Grid& grid = *grid_or;

  DetCipher det;
  CONCEALER_RETURN_IF_ERROR(det.SetKey(EpochKey(sk_, epoch_id)));
  RandCipher rand;
  CONCEALER_RETURN_IF_ERROR(
      rand.SetKey(EpochKey(sk_, epoch_id), /*nonce_seed=*/epoch_id));

  GridLayout layout;
  layout.cell_of_cell_index.resize(grid.num_cells());
  for (uint32_t c = 0; c < grid.num_cells(); ++c) {
    layout.cell_of_cell_index[c] = grid.CellIdOf(c);
  }
  layout.count_per_cell.assign(grid.num_cells(), 0);
  layout.count_per_cell_id.assign(grid.num_cell_ids(), 0);

  // Stage 2: per-tuple encryption (Alg. 1 lines 4-11) + hash chains
  // (lines 16-21), built incrementally in counter order. A cell-id's entry
  // holds its running digests and, once the loop ends, its tags.
  VerificationTags tags;

  EncryptedEpoch out;
  out.epoch_id = epoch_id;
  out.epoch_start = epoch_start;
  out.rows.reserve(tuples.size() * 2);

  for (const PlainTuple& tuple : tuples) {
    if (config_.time_buckets > 0 &&
        (tuple.time < epoch_start ||
         tuple.time >= epoch_start + config_.epoch_seconds)) {
      return Status::InvalidArgument("tuple timestamp outside epoch");
    }
    StatusOr<uint32_t> cell = grid.CellIndexOf(tuple.keys, tuple.time);
    if (!cell.ok()) return cell.status();
    const uint32_t cid = grid.CellIdOf(*cell);
    layout.count_per_cell[*cell]++;
    const uint32_t counter = ++layout.count_per_cell_id[cid];

    const uint64_t qtime = grid.QuantizeTime(tuple.time);
    Row row;
    row.columns.resize(kNumRowColumns);
    // All four columns through one batched DET call: the synthetic IVs
    // (CMACs) compute in lockstep lanes, which is where most of the
    // per-tuple cost sits. Bytes identical to four single Encrypts.
    const Bytes el_plain = KeyTimePlain(tuple.keys, qtime);
    const Bytes eo_plain = ObsTimePlain(tuple.observation, qtime);
    const Bytes er_plain = TuplePlain(tuple);
    const Bytes idx_plain = IndexPlain(cid, counter);
    const Slice plains[4] = {el_plain, eo_plain, er_plain, idx_plain};
    Bytes cols[4];
    det.EncryptBatch(plains, 4, cols);
    row.columns[kColEl] = std::move(cols[0]);
    row.columns[kColEo] = std::move(cols[1]);
    row.columns[kColEr] = std::move(cols[2]);
    row.columns[kColIndex] = std::move(cols[3]);

    if (config_.make_hash_chains) {
      const auto [chain, first] = tags.try_emplace(cid);
      ChainStepRow(row, /*started=*/!first, &chain->second);
    }
    out.rows.push_back(std::move(row));
  }
  out.num_real_tuples = tuples.size();

  // Fake tuples (Alg. 1 lines 12-15). Method (ii) simulates the enclave's
  // bin plan to ship exactly the fakes the bins need; method (i) ships at
  // least one fake per real tuple (paper footnote 3: "a little bit more
  // than n ... in the worst case" — the bin plan's demand governs).
  StatusOr<BinPlan> plan =
      MakeBinPlan(layout.count_per_cell_id, pack_algorithm());
  if (!plan.ok()) return plan.status();
  CONCEALER_RETURN_IF_ERROR(CheckTheorem41(*plan, out.num_real_tuples));
  uint64_t num_fakes = plan->total_fakes;
  if (config_.equal_fake_tuples && tuples.size() > num_fakes) {
    num_fakes = tuples.size();
  }

  // Fake payload lengths mirror real rows so ciphertext length does not
  // separate fake from real; with no real rows, use the minimal shape.
  const size_t n_real = out.rows.size();
  for (uint64_t j = 1; j <= num_fakes; ++j) {
    Row row;
    row.columns.resize(kNumRowColumns);
    size_t el_len = 16 + 13, eo_len = 16 + 17, er_len = 16 + 29;
    if (n_real > 0) {
      const Row& model = out.rows[(j - 1) % n_real];
      el_len = model.columns[kColEl].size();
      eo_len = model.columns[kColEo].size();
      er_len = model.columns[kColEr].size();
    }
    row.columns[kColEl] = rand.RandomBytes(el_len);
    row.columns[kColEo] = rand.RandomBytes(eo_len);
    row.columns[kColEr] = rand.RandomBytes(er_len);
    row.columns[kColIndex] = det.Encrypt(IndexPlain(kFakeCellId, j));
    out.rows.push_back(std::move(row));
  }
  out.num_fake_tuples = num_fakes;

  // Stage 3: permute all tuples (Alg. 1 line 24) and encrypt the shared
  // vectors and tags (line 25). The permutation seed is DP-local.
  Rng perm_rng(0x9e3779b97f4a7c15ULL ^ epoch_id);
  perm_rng.Shuffle(&out.rows);

  out.enc_grid_layout = rand.Encrypt(SerializeGridLayout(layout));

  out.enc_verification_tags = rand.Encrypt(SerializeTags(tags));
  return out;
}

}  // namespace concealer
