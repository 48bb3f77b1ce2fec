// streamer CLI — the paper's open-sourced benchmarking tool, rebuilt:
// sweeps the §3.2 configuration matrix over the modelled setups and prints
// figure panels / CSV.
//
// Usage:
//   streamer [--group=1a|1b|1c|2a|2b|all] [--kernel=copy|scale|add|triad|all]
//            [--csv=FILE] [--step=N] [--no-validate] [--quick]
//
// Each kernel is one paper figure: --kernel=scale is Figure 5, add is
// Figure 6, copy Figure 7 and triad Figure 8; --kernel also narrows the CSV
// rows, and --group=G draws only G's panel.
#include <cctype>
#include <charconv>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "streamer/report.hpp"
#include "streamer/runner.hpp"

namespace {

using namespace cxlpmem;
using namespace cxlpmem::streamer;

std::optional<TestGroup> parse_group(const std::string& s) {
  for (const TestGroup g : kAllGroups)
    if (s == to_string(g)) return g;
  return std::nullopt;
}

std::optional<stream::Kernel> parse_kernel(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  if (s == "copy") return stream::Kernel::Copy;
  if (s == "scale") return stream::Kernel::Scale;
  if (s == "add") return stream::Kernel::Add;
  if (s == "triad") return stream::Kernel::Triad;
  return std::nullopt;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--group=1a|1b|1c|2a|2b|all] [--kernel=copy|scale|add|triad"
               "|all]\n"
               "       [--csv=FILE] [--step=N] [--no-validate] [--quick]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string group_arg = "all";
  std::string kernel_arg = "all";
  std::string csv_path;
  RunnerOptions options;
  bool quick = false;
  bool step_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--group=", 0) == 0) {
      group_arg = arg.substr(8);
    } else if (arg.rfind("--kernel=", 0) == 0) {
      kernel_arg = arg.substr(9);
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_path = arg.substr(6);
    } else if (arg.rfind("--step=", 0) == 0) {
      const char* last = arg.data() + arg.size();
      const auto [end, ec] =
          std::from_chars(arg.data() + 7, last, options.thread_step);
      if (ec != std::errc() || end != last || options.thread_step < 1)
        return usage(argv[0]);
      step_given = true;
    } else if (arg == "--no-validate") {
      options.validate = false;
    } else if (arg == "--quick") {
      options.bench.verify_elements = 1u << 18;
      options.bench.ntimes = 1;
      quick = true;
    } else {
      return usage(argv[0]);
    }
  }
  // --quick thins the sweep to every second thread count unless --step,
  // before or after it, names the step.
  if (quick && !step_given) options.thread_step = 2;

  const std::optional<TestGroup> group = parse_group(group_arg);
  const std::optional<stream::Kernel> kernel = parse_kernel(kernel_arg);
  if (group_arg != "all" && !group) return usage(argv[0]);
  if (kernel_arg != "all" && !kernel) return usage(argv[0]);

  const Streamer streamer(options);
  std::vector<Series> series =
      group ? streamer.run_group(*group) : streamer.run_all();
  if (kernel)
    std::erase_if(series, [&](const Series& s) { return s.kernel != kernel; });

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    write_csv(csv, series);
    std::cout << "wrote " << csv_path << "\n";
  }

  for (const stream::Kernel k :
       {stream::Kernel::Scale, stream::Kernel::Add, stream::Kernel::Copy,
        stream::Kernel::Triad}) {
    if (kernel && k != *kernel) continue;
    std::cout << "==== " << to_string(k) << " ====\n";
    if (group) {
      print_panel(std::cout, series, *group, k);
      std::cout << "\n";
    } else {
      print_figure(std::cout, series, k);
    }
  }
  return 0;
}
