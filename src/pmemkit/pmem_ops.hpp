// pmemkit/pmem_ops.hpp — PersistentRegion: the persistence-domain interface
// every pmemkit component writes through.
//
// It wraps the mapped pool image and (optionally) the persistence model
// (pmemsan.hpp).  The primitive vocabulary mirrors libpmem:
//   flush(p, n)   ~ CLWB loop        — schedule lines for write-back
//   drain()       ~ SFENCE           — make scheduled lines durable
//   persist(p, n) ~ flush + drain
//   memcpy_persist(dst, src, n)      — store + persist
// With no model attached these are no-ops beyond the store itself (the
// mapped file *is* the media); with one they maintain the crash image and,
// under pmemcheck, run the PmemSan rules.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "pmemkit/errors.hpp"
#include "pmemkit/mapped_file.hpp"
#include "pmemkit/pmemsan.hpp"

namespace cxlpmem::pmemkit {

class PersistentRegion {
 public:
  /// Takes ownership of the mapping.  Either option attaches the one
  /// persistence model (slower; for tests and the crash harness):
  /// `track_shadow` for crash images, `pmemcheck` to also run the PmemSan
  /// rules (see pmemsan.hpp for the rule catalog).
  explicit PersistentRegion(MappedFile file, bool track_shadow = false,
                            bool pmemcheck = false)
      : file_(std::move(file)) {
    if (track_shadow || pmemcheck)
      model_ = std::make_unique<PmemSan>(file_.data(), file_.size(),
                                         file_.path().filename().string(),
                                         pmemcheck);
  }

  [[nodiscard]] std::byte* base() noexcept { return file_.data(); }
  [[nodiscard]] const std::byte* base() const noexcept { return file_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return file_.size(); }
  [[nodiscard]] MappedFile& file() noexcept { return file_; }

  [[nodiscard]] std::size_t offset_of(const void* p) const {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                    base());
  }

  void flush(const void* p, std::size_t n) {
    if (model_) model_->on_flush(offset_of(p), n);
  }
  void drain() {
    ++t_drain_count;
    if (model_) model_->on_fence();
  }

  /// Fences (drain calls) issued by the calling thread, across all regions,
  /// since thread start.  Thread-local so the count costs nothing to
  /// maintain and nothing to read; benchmarks and tests diff it around an
  /// operation to assert its fence budget (e.g. "one fenced persist per
  /// published snapshot").
  [[nodiscard]] static std::uint64_t thread_drain_count() noexcept {
    return t_drain_count;
  }
  void persist(const void* p, std::size_t n) {
    if (model_) model_->on_persist(offset_of(p), n);
    flush(p, n);
    drain();
  }
  /// Marks a range as modified-without-flush (transaction user ranges).
  void note_store(const void* p, std::size_t n) {
    if (model_) model_->on_store(offset_of(p), n, PmemSan::StoreOrigin::User);
  }
  /// The infrastructure twin of note_store: pmemkit's own metadata writes
  /// (lane headers, log entries, heap bookkeeping) announce themselves so
  /// the sanitizer can tell a deliberate store from a stray flush.  Exempt
  /// from the R1 coverage check.
  void note_store_infra(const void* p, std::size_t n) {
    if (model_)
      model_->on_store(offset_of(p), n, PmemSan::StoreOrigin::Infra);
  }

  void memcpy_persist(void* dst, const void* src, std::size_t n) {
    std::memcpy(dst, src, n);  // pmemlint: allow(the canonical pmem store seam)
    note_store_infra(dst, n);
    persist(dst, n);
  }
  void memset_persist(void* dst, int value, std::size_t n) {
    std::memset(dst, value, n);  // pmemlint: allow(the canonical pmem store seam)
    note_store_infra(dst, n);
    persist(dst, n);
  }

  /// The model when its rules run (pmemcheck), else nullptr: rule-only
  /// hooks (transaction coverage, discards) key on this.
  [[nodiscard]] PmemSan* pmemsan() noexcept {
    return model_ && model_->rules() ? model_.get() : nullptr;
  }

  /// The media image after a power cut now (PmemSan::crash_image).
  [[nodiscard]] std::vector<std::byte> crash_image(
      CrashPolicy policy, std::uint64_t seed = 0) const {
    if (!model_) throw PoolError("crash_image needs track_shadow or pmemcheck");
    return model_->crash_image(policy, seed);
  }

  /// Resizes the backing file/mapping (MappedFile::resize semantics: throws
  /// PoolError(Io) and stays intact on failure; the base may move) and
  /// keeps the durable image in step.
  void resize(std::size_t new_size) {
    file_.resize(new_size);
    if (model_) model_->remap(file_.data(), file_.size());
  }

 private:
  static inline thread_local std::uint64_t t_drain_count = 0;

  MappedFile file_;
  std::unique_ptr<PmemSan> model_;
};

}  // namespace cxlpmem::pmemkit
