// dpplace_check: design lint. Runs the check/ rule catalog over a
// Bookshelf design + placement (or a generated benchmark) and reports
// every violated invariant; exits nonzero when errors are found, so it
// slots into scripted flows as a gate after placement.
//
// Usage:
//   dpplace_check --aux out.aux [--groups out.groups] [options]
//   dpplace_check --bench dp_alu32 [options]
// Options:
//   --level cheap|full    rule depth (default full)
//   --categories LIST     comma list of netlist,geom,legal,structure,timing
//                         (default: all for --aux; netlist,structure for
//                         --bench, whose initial placement is deliberately
//                         unplaced and would fail legality)
//   --json                machine-readable report on stdout
//   --strict              exit nonzero on warnings as well as errors
//   --max-diags N         retain at most N diagnostics (default 64)
//
// Exits 0 when clean, 1 on errors (or warnings with --strict), and 2 on a
// usage error, a bad or missing flag value, or input that cannot be loaded.

#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "check/rules.hpp"
#include "dpgen/benchmarks.hpp"
#include "netlist/bookshelf.hpp"
#include "parse_number.hpp"
#include "util/logger.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--bench NAME | --aux FILE) [--groups FILE] "
               "[--level cheap|full] [--categories LIST] [--json] "
               "[--strict] [--max-diags N]\n",
               argv0);
  return 2;
}

unsigned parse_categories(const std::string& list, bool* ok) {
  unsigned mask = 0;
  *ok = true;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string tok =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok == "netlist") mask |= dp::check::kCatNetlist;
    else if (tok == "geom") mask |= dp::check::kCatGeometry;
    else if (tok == "legal") mask |= dp::check::kCatLegality;
    else if (tok == "structure") mask |= dp::check::kCatStructure;
    else if (tok == "timing") mask |= dp::check::kCatTiming;
    else if (!tok.empty()) *ok = false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

int run(int argc, char** argv) {
  using namespace dp;
  util::Logger::set_level(util::LogLevel::kWarn);

  std::string bench_name, aux_path, groups_path;
  check::CheckLevel level = check::CheckLevel::kFull;
  unsigned categories = 0;  // 0 = pick a default per input kind
  bool json = false, strict = false;
  std::size_t max_diags = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--bench") {
      bench_name = next();
    } else if (arg == "--aux") {
      aux_path = next();
    } else if (arg == "--groups") {
      groups_path = next();
    } else if (arg == "--level") {
      const std::string v = next();
      if (v == "cheap") level = check::CheckLevel::kCheap;
      else if (v == "full") level = check::CheckLevel::kFull;
      else return usage(argv[0]);
    } else if (arg == "--categories") {
      bool ok = false;
      categories = parse_categories(next(), &ok);
      if (!ok || categories == 0) return usage(argv[0]);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--max-diags") {
      max_diags = examples::parse_number<std::size_t>(arg, next());
    } else {
      return usage(argv[0]);
    }
  }
  if (bench_name.empty() == aux_path.empty()) return usage(argv[0]);

  // Only a generated benchmark has a ground truth, and its initial
  // placement is deliberately unplaced.
  const bool generated = !bench_name.empty();
  const netlist::Problem problem = generated
                                       ? dpgen::make_benchmark(bench_name)
                                       : netlist::read_bookshelf(aux_path);
  if (categories == 0) {
    categories =
        generated
            ? check::kCatNetlist | check::kCatStructure | check::kCatTiming
            : check::kCatAll;
  }
  std::optional<netlist::StructureAnnotation> sidecar;
  if (!groups_path.empty()) {
    sidecar.emplace(netlist::read_groups(groups_path, problem.netlist));
  }
  const netlist::Netlist& nl = problem.netlist;

  check::CheckContext ctx;
  ctx.netlist = &nl;
  ctx.design = &problem.design;
  ctx.placement = &problem.placement;
  if (sidecar) {
    ctx.structure = &*sidecar;
  } else if (generated) {
    ctx.structure = &problem.truth;
  }

  check::DiagnosticSink sink(max_diags);
  const check::CheckSummary summary =
      check::run_checks(ctx, sink, level, categories);

  if (json) {
    std::printf("%s\n", check::format_json(sink, &nl).c_str());
  } else {
    std::printf("%s", check::format_text(sink, &nl).c_str());
    std::printf("%zu rule(s) run on %s\n", summary.rules_run,
                bench_name.empty() ? aux_path.c_str() : bench_name.c_str());
  }
  if (sink.num_errors() > 0) return 1;
  if (strict && sink.num_warnings() > 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpplace_check: %s\n", e.what());
    return 2;
  }
}
