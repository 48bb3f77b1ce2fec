#include "pmemkit/redo.hpp"

#include <cstring>

#include "pmemkit/checksum.hpp"
#include "pmemkit/crash_hook.hpp"
#include "pmemkit/errors.hpp"

namespace cxlpmem::pmemkit {

namespace {

std::uint64_t cells_checksum(const RedoLog& log, std::uint64_t count) {
  return fletcher64(log.cells.data(), count * sizeof(RedoCell));
}

void apply_cells(PersistentRegion& region, const RedoLog& log) {
  for (std::uint64_t i = 0; i < log.count; ++i) {
    const RedoCell& c = log.cells[i];
    // pmemlint: allow(the redo apply primitive; flushed on the next line)
    std::memcpy(region.base() + c.off, &c.val, sizeof(c.val));
    region.note_store_infra(region.base() + c.off, sizeof(c.val));
    region.flush(region.base() + c.off, sizeof(c.val));
  }
  region.drain();
}

}  // namespace

void RedoSession::abandon() noexcept {
  if (count_ == 0) return;
  if (PmemSan* san = region_->pmemsan())
    san->discard(region_->offset_of(log_->cells.data()),
                 count_ * sizeof(RedoCell));
  count_ = 0;
}

void RedoSession::stage(std::uint64_t off, std::uint64_t val) {
  if (count_ >= kRedoCapacity) throw TxError(ErrKind::LogOverflow, "redo log full");
  if (off + sizeof(std::uint64_t) > region_->size())
    throw TxError(ErrKind::TxMisuse, "redo target outside pool");
  log_->cells[count_++] = RedoCell{off, val};
}

void RedoSession::commit() {
  if (count_ == 0) return;
  // Before the content persist: a thread that has not seen a power cut yet
  // must not overwrite a log that a cut thread published on this lane and
  // released unapplied (tx:acquire guards the undo side the same way).
  crash_point("redo:begin");
  RedoLog& log = *log_;

  // (1) log content.  Only the header words and the staged cells were
  // written: persisting the whole RedoLog would write back up to 15 cache
  // lines of stale cells from earlier sessions on this lane (PmemSan flags
  // every one as a redundant flush).
  log.count = count_;
  log.checksum = cells_checksum(log, count_);
  const std::size_t published =
      4 * sizeof(std::uint64_t) + count_ * sizeof(RedoCell);
  region_->note_store_infra(&log, published);
  region_->persist(&log, published);
  crash_point("redo:content");

  // (2) publish.
  log.valid = 1;
  region_->note_store_infra(&log.valid, sizeof(log.valid));
  region_->persist(&log.valid, sizeof(log.valid));
  crash_point("redo:published");

  // (3) apply.
  apply_cells(*region_, log);
  crash_point("redo:applied");

  // (4) retire.
  log.valid = 0;
  region_->note_store_infra(&log.valid, sizeof(log.valid));
  region_->persist(&log.valid, sizeof(log.valid));
  crash_point("redo:retired");
  count_ = 0;
}

bool redo_recover(PersistentRegion& region, RedoLog& log) {
  if (log.valid == 0) return false;
  if (log.count > kRedoCapacity ||
      log.checksum != cells_checksum(log, log.count)) {
    // Torn publish: the op never happened.
    log.valid = 0;
    region.note_store_infra(&log.valid, sizeof(log.valid));
    region.persist(&log.valid, sizeof(log.valid));
    return false;
  }
  apply_cells(region, log);
  log.valid = 0;
  region.note_store_infra(&log.valid, sizeof(log.valid));
  region.persist(&log.valid, sizeof(log.valid));
  return true;
}

}  // namespace cxlpmem::pmemkit
