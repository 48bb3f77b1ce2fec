#include "pmemkit/introspect.hpp"

#include <algorithm>
#include <sstream>

namespace cxlpmem::pmemkit {

PoolReport inspect(const ObjectPool& pool) {
  PoolReport r;
  const PoolHeader& h = pool.header();
  r.layout = pool.layout();
  r.pool_id = h.pool_id;
  r.pool_size = h.pool_size;
  r.clean_shutdown = (h.flags & kFlagCleanShutdown) != 0;
  r.has_root = h.root_off != 0;
  r.root_size = h.root_size;

  // Lanes.  The live undo tail is transient since layout version 2, so
  // the published bytes are recomputed the way recovery would see them:
  // the checksum-valid current-generation entry prefix.  Both that scan
  // and the header reads are only performed where they cannot race with a
  // concurrent transaction: the lanes that were free, which the scan takes
  // out of the pool's free-lane mask for its duration (a past owner's
  // writes happened-before its release into the mask, and no one can
  // check one out until the scan hands them back), and the calling
  // thread's own transaction lane.  A lane another thread is actively
  // transacting on is in motion end to end — it is counted, never read.
  // lane_mu_ only keeps two inspections from taking each other's lanes;
  // the lanes go back after it is released, on every exit path.
  auto& mutable_pool = const_cast<ObjectPool&>(pool);
  struct LanesBack {
    ObjectPool& pool;
    std::uint64_t lanes = 0;
    ~LanesBack() { pool.return_lanes(lanes); }
  };
  {
    LanesBack taken{mutable_pool};
    const std::lock_guard<std::mutex> one_scan(mutable_pool.lane_mu_);
    taken.lanes = mutable_pool.free_lanes_.exchange(0);
    const std::uint32_t own_lane = mutable_pool.current_tx_lane();
    for (std::uint32_t l = 0; l < h.lane_count; ++l) {
      if (((taken.lanes >> l) & 1) == 0 && l != own_lane) {
        ++r.lanes_in_flight;
        continue;
      }
      const LaneHeader& lane = mutable_pool.lane_header(l);
      const auto state = static_cast<LaneState>(lane.state);
      if (state == LaneState::Idle && lane.redo.valid == 0) continue;
      const std::uint64_t undo_bytes =
          state == LaneState::Idle
              ? 0
              : undo_published_bytes(mutable_pool.lane_undo(l),
                                     lane.undo_gen);
      r.busy_lanes.push_back(LaneSummary{l, state, undo_bytes,
                                         lane.redo.valid != 0});
    }
  }

  r.heap = pool.stats().heap;
  r.occupancy = pool.occupancy();

  // Census + structural checks through the public iteration API.
  std::map<std::uint32_t, TypeCensusRow> census;
  std::uint64_t iterated = 0;
  try {
    for (ObjId o = pool.first(); !o.is_null(); o = pool.next(o)) {
      ++iterated;
      const std::uint32_t type = pool.type_of(o);
      const std::uint64_t usable = pool.usable_size(o);
      if (usable == 0)
        r.problems.push_back("object at offset " + std::to_string(o.off) +
                             " has zero usable size");
      auto& row = census[type];
      row.type_num = type;
      row.objects += 1;
      row.usable_bytes += usable;
    }
  } catch (const std::exception& e) {
    r.problems.push_back(std::string("object walk failed: ") + e.what());
  }
  for (auto& [type, row] : census) r.census.push_back(row);

  if (iterated != r.heap.object_count)
    r.problems.push_back(
        "census/bitmap mismatch: walked " + std::to_string(iterated) +
        " objects, heap accounts " + std::to_string(r.heap.object_count));
  if (r.has_root && !pool.heap_->is_live(pool.header().root_off))
    r.problems.push_back("root oid does not point at a live object");
  if (r.heap.allocated_bytes >
      r.heap.total_bytes)
    r.problems.push_back("heap accounting exceeds capacity");
  // With no lane in flight no operation sits between stage and finish, so
  // the counters must equal the walk exactly.
  if (r.lanes_in_flight == 0 &&
      (r.occupancy.live_bytes != r.heap.live_bytes ||
       r.occupancy.reserved_bytes != r.heap.reserved_bytes))
    r.problems.push_back(
        "occupancy drift: counters live=" +
        std::to_string(r.occupancy.live_bytes) +
        " reserved=" + std::to_string(r.occupancy.reserved_bytes) +
        ", walk live=" + std::to_string(r.heap.live_bytes) +
        " reserved=" + std::to_string(r.heap.reserved_bytes));

  r.consistent = r.problems.empty();
  return r;
}

std::string to_text(const PoolReport& r) {
  std::ostringstream os;
  os << "pool layout   : " << r.layout << "\n"
     << "pool id       : 0x" << std::hex << r.pool_id << std::dec << "\n"
     << "size          : " << r.pool_size << " bytes\n"
     // The flag is cleared while any handle is open, so "dirty" is the
     // normal state for a live inspection; "clean" appears only when
     // inspecting a closed image out-of-band.
     << "shutdown flag : "
     << (r.clean_shutdown ? "clean" : "dirty (normal while open)") << "\n"
     << "root object   : "
     << (r.has_root ? std::to_string(r.root_size) + " bytes" : "(none)")
     << "\n";
  os << "heap          : " << r.heap.object_count << " objects, "
     << r.heap.allocated_bytes << " / " << r.heap.total_bytes
     << " bytes allocated, " << r.heap.free_chunks << "/"
     << r.heap.chunk_count << " chunks free\n";
  os << "occupancy     : " << r.occupancy.live_bytes << " live / "
     << r.occupancy.reserved_bytes << " reserved bytes, fragmentation "
     << r.occupancy.fragmentation << "\n";
  if (r.busy_lanes.empty() && r.lanes_in_flight == 0) {
    os << "lanes         : all idle\n";
  } else {
    os << "lanes         : " << r.busy_lanes.size() << " in flight";
    if (r.lanes_in_flight > 0)
      os << " + " << r.lanes_in_flight << " busy on other threads";
    os << "\n";
    for (const LaneSummary& l : r.busy_lanes)
      os << "  lane " << l.index << ": state "
         << static_cast<int>(l.state) << ", undo " << l.undo_bytes
         << " B" << (l.redo_published ? ", redo published" : "") << "\n";
  }
  os << "object census :\n";
  for (const TypeCensusRow& row : r.census)
    os << "  type " << row.type_num << ": " << row.objects << " objects, "
       << row.usable_bytes << " usable bytes\n";
  os << "consistency   : " << (r.consistent ? "OK" : "PROBLEMS") << "\n";
  for (const std::string& p : r.problems) os << "  !! " << p << "\n";
  return os.str();
}

}  // namespace cxlpmem::pmemkit
