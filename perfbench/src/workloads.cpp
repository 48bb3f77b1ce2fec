#include "workloads.hpp"

#include <stdexcept>

#include "api/runtime_builder.hpp"

namespace perfbench {

cxlpmem::api::Runtime make_runtime(const std::filesystem::path& dir) {
  cxlpmem::api::Result<cxlpmem::api::Runtime> rt =
      cxlpmem::api::RuntimeBuilder::setup_one().base_dir(dir).build();
  if (!rt.ok()) throw std::runtime_error("runtime: " + rt.error().to_string());
  return std::move(rt).value();
}

double SetupClock::median_cpu_s() const {
  std::vector<double> v = cpu_s_;
  return percentile(v, 0.5).value;
}

void SetupClock::note(Report& r) const {
  std::string cpu, wall;
  for (std::size_t i = 0; i < cpu_s_.size(); ++i) {
    cpu += std::to_string(cpu_s_[i]) + " ";
    wall += std::to_string(wall_s_[i]) + " ";
  }
  r.note("setup_cpu_s", cpu);
  r.note("setup_wall_s", wall);
}

void put_e2e(Outcome& o, const Phase& p, const Report& r, double space_amp,
             const SetupClock& setup) {
  o.e2e["cpu_us_per_op"] = p.cpu_us_per_op;
  o.e2e["ok_frac"] = r.attempted ? 1.0 - static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                 : 0.0;
  o.e2e["space_amp"] = space_amp;
  o.e2e["setup_s"] = setup.median_cpu_s();
}

void put_overhead(Outcome& o, const Phase& untraced, const Phase& traced) {
  o.layer["trace.overhead_cpu_us_per_op"] =
      traced.cpu_us_per_op - untraced.cpu_us_per_op;
  o.layer["trace.overhead_write_p50_us"] =
      traced.write_p50.value - untraced.write_p50.value;
  o.layer["trace.overhead_read_p50_us"] =
      traced.read_p50.value - untraced.read_p50.value;
}

void note_phase(Report& r, const Phase& p, const PhaseNames& names) {
  r.note(names.ops, std::to_string(p.ops_s) + " 1/s");
  auto pct = [&](const char* name, const Pct& x) {
    if (name == nullptr) return;
    r.note(name, std::to_string(x.value * names.scale) + " " + names.unit +
                     " n=" + std::to_string(x.n) +
                     " beyond=" + std::to_string(x.beyond));
  };
  pct(names.write_p50, p.write_p50);
  pct(names.write_tail, p.write_tail);
  pct(names.read_p50, p.read_p50);
  pct(names.read_tail, p.read_tail);
  r.note("steal_frac", std::to_string(p.steal_frac));
}

}  // namespace perfbench
