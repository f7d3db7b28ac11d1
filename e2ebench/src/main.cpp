// e2e_bench, the end-to-end benchmark program: runs one workload for a
// fixed time and prints its metrics. See README.md for the workloads and
// metrics.
//
//   e2e_bench --workload acc_grad_learn --seed 1 --seconds 20 --trace 0
//             [--work-dir DIR] [--commit ID]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run (and its span file). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "interval/lanes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using e2e::Layers;
using e2e::RepResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/e2ebench-work";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  return a;
}

// Aggregate of a run's samples: the mean after dropping the fastest and
// the slowest sample (when there are at least five). On a shared host the
// speed switches between modes every few seconds; a median then jumps
// between the modes with the run's mix of them, while the trimmed mean
// moves with the mix smoothly and still ignores a single stalled sample.
double trimmed_mean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() >= 5 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i + cut < xs.size(); ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

// High-water resident set of this program's address space. (getrusage's
// ru_maxrss would also count the launching process's memory, which Linux
// folds in at exec.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& ms) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : ms) {
    std::printf("%-34s %16.6g  %s\n", m.name, m.value, m.unit);
  }
  std::printf("ops: %zu attempted, %zu failed; outputs %s\n", attempted,
              failed, correct ? "correct" : "WRONG");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name, ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

// Per-layer metrics, derived per traced repetition and reported as their
// trimmed mean over repetitions.
struct LayerMetric {
  const char* name;
  const char* unit;
  std::function<double(const Layers&)> of;
};

std::vector<LayerMetric> layer_metrics() {
  const auto field = [](double Layers::*m) {
    return [m](const Layers& l) { return l.*m; };
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"core.learner.iters", "count", field(&Layers::learner_iters)},
      {"core.learner.verifier_calls", "count", field(&Layers::learner_calls)},
      {"core.learner.verifier_busy_s", "s", field(&Layers::learner_busy_s)},
      {"core.learner.self_s", "s",
       [](const Layers& l) { return l.learner_wall_s - l.learner_busy_s; }},
      {"reach.cache.misses", "count", field(&Layers::cache_misses)},
      {"reach.cache.disk_hits", "count", field(&Layers::cache_disk_hits)},
      {"reach.cache.disk_bytes_written", "bytes",
       field(&Layers::cache_bytes_written)},
      {"reach.cache.disk_bytes_read", "bytes",
       field(&Layers::cache_bytes_read)},
      {"reach.cache.overhead_s", "s", field(&Layers::cache_overhead_s)},
      {"reach.tm_dynamics.eval_calls", "count", field(&Layers::dyn_calls)},
      {"reach.tm_dynamics.busy_s", "s", field(&Layers::dyn_busy_s)},
      {"reach.control_abstraction.calls", "count", field(&Layers::abs_calls)},
      {"reach.control_abstraction.busy_s", "s", field(&Layers::abs_busy_s)},
      {"reach.tm_flowpipe.self_s", "s",
       [](const Layers& l) {
         return l.traced_verifier_busy_s - l.abs_busy_s - l.dyn_busy_s;
       }},
      {"reach.tm_flowpipe.substeps", "count", field(&Layers::substeps)},
      {"reach.tm_flowpipe.rejects", "count", field(&Layers::rejects)},
      {"reach.tm_flowpipe.order_escalations", "count",
       field(&Layers::order_escalations)},
      {"reach.tm_flowpipe.reinits", "count", field(&Layers::reinits)},
      {"reach.tm_flowpipe.sym_flushes", "count", field(&Layers::sym_flushes)},
      {"core.initial_set.verifier_calls", "count", field(&Layers::xi_calls)},
      {"core.initial_set.cells_certified", "count",
       field(&Layers::xi_certified)},
      {"core.initial_set.cells_rejected", "count",
       field(&Layers::xi_rejected)},
      {"core.initial_set.useful_ratio", "ratio",
       [=](const Layers& l) { return ratio(l.xi_certified, l.xi_calls); }},
      {"core.initial_set.calls_per_s", "1/s",
       [=](const Layers& l) { return ratio(l.xi_calls, l.search_wall_s); }},
      {"parallel.cpu_s", "s", field(&Layers::cpu_s)},
      {"parallel.efficiency", "ratio",
       [=](const Layers& l) { return ratio(l.cpu_s, l.thread_wall_s); }},
      {"core.verdict.busy_s", "s", field(&Layers::verdict_busy_s)},
      {"sim.samples", "count", field(&Layers::sim_samples)},
      {"sim.busy_s", "s", field(&Layers::sim_busy_s)},
      {"sim.escapes", "count", field(&Layers::sim_escapes)},
  };
}

// Text table of the traced run: busy time, self time and counts per layer.
void print_layer_table(const std::vector<Layers>& reps, double pipeline_s) {
  const auto avg = [&](const std::function<double(const Layers&)>& f) {
    std::vector<double> xs;
    for (const Layers& l : reps) xs.push_back(f(l));
    return trimmed_mean(xs);
  };
  struct Row {
    const char* layer;
    double calls, busy, self;
  };
  const Row rows[] = {
      {"core.learner (learn+relearn)",
       avg([](const Layers& l) { return l.learner_calls; }),
       avg([](const Layers& l) { return l.learner_wall_s; }),
       avg([](const Layers& l) {
         return l.learner_wall_s - l.learner_busy_s;
       })},
      {"  reach.cache (persistent tier)",
       avg([](const Layers& l) { return l.cache_misses + l.cache_disk_hits; }),
       avg([](const Layers& l) { return l.cache_overhead_s; }),
       avg([](const Layers& l) { return l.cache_overhead_s; })},
      {"core.verdict (verify_controller)", 0,
       avg([](const Layers& l) { return l.verdict_busy_s; }), -1},
      {"sim (containment sampling)",
       avg([](const Layers& l) { return l.sim_samples; }),
       avg([](const Layers& l) { return l.sim_busy_s; }),
       avg([](const Layers& l) { return l.sim_busy_s; })},
      {"core.initial_set (search)",
       avg([](const Layers& l) { return l.xi_calls; }),
       avg([](const Layers& l) { return l.search_wall_s; }), -1},
      {"reach.tm_flowpipe (traced ops)", 0,
       avg([](const Layers& l) { return l.traced_verifier_busy_s; }),
       avg([](const Layers& l) {
         return l.traced_verifier_busy_s - l.abs_busy_s - l.dyn_busy_s;
       })},
      {"  reach.control_abstraction",
       avg([](const Layers& l) { return l.abs_calls; }),
       avg([](const Layers& l) { return l.abs_busy_s; }),
       avg([](const Layers& l) { return l.abs_busy_s; })},
      {"  reach.tm_dynamics",
       avg([](const Layers& l) { return l.dyn_calls; }),
       avg([](const Layers& l) { return l.dyn_busy_s; }),
       avg([](const Layers& l) { return l.dyn_busy_s; })},
  };
  std::printf("\nper-layer breakdown (trimmed mean of %zu traced repetitions, "
              "pipeline %.4f s)\n",
              reps.size(), pipeline_s);
  std::printf("%-34s %10s %10s %10s %7s\n", "layer", "calls", "busy_s",
              "self_s", "busy%");
  for (const Row& r : rows) {
    char self[32] = "-";
    if (r.self >= 0) std::snprintf(self, sizeof self, "%.4f", r.self);
    std::printf("%-34s %10.0f %10.4f %10s %6.1f%%\n", r.layer, r.calls,
                r.busy, self, pipeline_s > 0 ? 100.0 * r.busy / pipeline_s : 0);
  }
  std::printf("(busy times are summed over threads; set-up learns are "
              "included in the learner rows when the workload learns in "
              "set-up)\n");
}

// Counts and checks shared by both modes.
struct Tally {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  void add(const RepResult& r) {
    attempted += r.ops;
    failed += r.failed_ops;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
  // A repetition whose bits differ from the reference fails every op.
  void compare(const RepResult& r, const RepResult& ref, const char* what) {
    if (r.bits == ref.bits) return;
    failed += r.ops - r.failed_ops;
    failures.push_back(std::string(what) +
                       ": results differ from the reference repetition");
  }
  // Failed run-level checks count against the ops whose outputs they test.
  void run_checks(const e2e::Runner& runner, const e2e::Setup& s,
                  const RepResult& ref, std::uint64_t seed) {
    const e2e::Workload& w = runner.workload();
    std::vector<std::string> f;
    e2e::check_certificates(
        *s.plain.verify.front(), *w.bench.system, *ref.ctrl, w.bench.spec,
        ref.report.facts.safe_certified,
        ref.report.verdict == dwv::core::Verdict::kReachAvoid, ref.xi, seed,
        f);
    e2e::self_test(*w.bench.system, *ref.ctrl, w.bench.spec, ref.x0_pipe,
                   seed, f);
    failed = std::min(attempted, failed + f.size());
    failures.insert(failures.end(), f.begin(), f.end());
  }
  bool correct() const { return failed == 0 && failures.empty(); }
  void print() const {
    for (const std::string& f : failures) {
      std::printf("FAILED: %s\n", f.c_str());
    }
  }
};

void print_stamp(const Args& a, const e2e::Workload& w) {
  const char* lanes_env = std::getenv("DWV_LANES");
  std::printf("e2e_bench: workload %s, seed %llu, %.0f s, trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("stamp: nproc %u | cpu %s | lanes %s (avx2 supported %d, "
              "DWV_LANES=%s) | build %s | search threads %zu | seed %llu | "
              "commit %s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              dwv::interval::lanes::active_ops().name,
              dwv::interval::lanes::avx2_supported() ? 1 : 0,
              lanes_env ? lanes_env : "unset", E2E_BUILD_TYPE,
              w.search.threads, static_cast<unsigned long long>(a.seed),
              a.commit.c_str());
  std::fflush(stdout);
}

void print_rep(const char* tag, std::size_t i, const RepResult& r) {
  std::printf("%s %2zu: pipeline %.4f s (learn %.4f, relearn %.4f, verify "
              "%.4f, search %.4f)\n",
              tag, i, r.pipeline_s, r.learn_s, r.relearn_s, r.verify_s,
              r.search_s);
  std::fflush(stdout);
}

int run_plain(const Args& a, const e2e::Runner& runner) {
  const e2e::Workload& w = runner.workload();
  Tally tally;
  std::vector<double> setup_s, learn_s, relearn_s;
  e2e::Setup s;
  const auto set_up = [&] {
    const double t0 = e2e::wall_now();
    e2e::Setup si = runner.setup(false);
    setup_s.push_back(e2e::wall_now() - t0);
    tally.add(si.learn);
    if (s.ctrl) tally.compare(si.learn, s.learn, "set-up");
    learn_s.push_back(si.learn.learn_s);
    relearn_s.push_back(si.learn.relearn_s);
    s = std::move(si);
  };
  set_up();

  // The first repetition warms the process and is the reference every
  // measured repetition must reproduce bit for bit.
  RepResult ref = runner.rep(s, false, 0);
  tally.add(ref);
  print_rep("warm-up", 0, ref);
  std::vector<RepResult> reps;
  const double t0 = e2e::wall_now();
  while (e2e::wall_now() - t0 < a.seconds || reps.size() < 3) {
    // A set-up before every repetition spreads the setup_s samples (and on
    // acc_xi_search the learn samples) over the whole run.
    set_up();
    RepResult r =
        runner.rep(s, false, static_cast<std::uint32_t>(reps.size() + 1));
    tally.add(r);
    tally.compare(r, ref, "repetition");
    print_rep("rep", reps.size() + 1, r);
    reps.push_back(std::move(r));
  }
  std::printf("set-up: %.4f s over %zu\n", trimmed_mean(setup_s),
              setup_s.size());
  tally.run_checks(runner, s, ref, a.seed);

  const auto avg = [&](double RepResult::*f) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(r.*f);
    return trimmed_mean(xs);
  };
  const std::vector<Metric> ms = {
      {"setup_s", "s", trimmed_mean(setup_s)},
      {"pipeline_s", "s", avg(&RepResult::pipeline_s)},
      {"learn_s", "s",
       w.learn_in_setup ? trimmed_mean(learn_s) : avg(&RepResult::learn_s)},
      {"relearn_warm_s", "s",
       w.learn_in_setup ? trimmed_mean(relearn_s)
                        : avg(&RepResult::relearn_s)},
      {"verify_s", "s", avg(&RepResult::verify_s)},
      {"xi_search_s", "s", avg(&RepResult::search_s)},
      {"xi_coverage", "ratio", ref.xi_coverage},
      {"reach_width", "ratio", ref.reach_width},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  std::printf("%zu measured repetitions\n", reps.size());
  tally.print();
  print_result(tally.correct(), tally.attempted, tally.failed, ms);
  return 0;
}

int run_traced(const Args& a, const e2e::Runner& runner) {
  const e2e::Workload& w = runner.workload();
  Tally tally;
  const e2e::Setup plain = runner.setup(false);
  const e2e::Setup traced = runner.setup(true);
  tally.add(plain.learn);
  tally.add(traced.learn);
  tally.compare(traced.learn, plain.learn, "traced set-up");

  RepResult ref = runner.rep(plain, false, 0);
  tally.add(ref);
  print_rep("warm-up", 0, ref);
  std::vector<RepResult> tr, un;
  const double t0 = e2e::wall_now();
  while (e2e::wall_now() - t0 < a.seconds || tr.size() < 2 || un.size() < 2) {
    const bool t = tr.size() <= un.size();
    const auto id = static_cast<std::uint32_t>(tr.size() + un.size() + 1);
    RepResult r = runner.rep(t ? traced : plain, t, id);
    tally.add(r);
    tally.compare(r, ref, t ? "traced repetition" : "untraced repetition");
    print_rep(t ? "traced" : "untraced", id, r);
    (t ? tr : un).push_back(std::move(r));
  }
  tally.run_checks(runner, plain, ref, a.seed);

  std::vector<Layers> layers;
  std::vector<double> tr_pipe, un_pipe;
  for (const RepResult& r : tr) {
    Layers l = r.layers;
    if (w.learn_in_setup) {
      // The learner and its cache work in set-up on this workload.
      const Layers& sl = traced.learn.layers;
      l.learner_iters = sl.learner_iters;
      l.learner_calls = sl.learner_calls;
      l.learner_busy_s = sl.learner_busy_s;
      l.learner_wall_s = sl.learner_wall_s;
      l.cache_misses = sl.cache_misses;
      l.cache_disk_hits = sl.cache_disk_hits;
      l.cache_bytes_written = sl.cache_bytes_written;
      l.cache_bytes_read = sl.cache_bytes_read;
      l.cache_overhead_s = sl.cache_overhead_s;
    }
    layers.push_back(l);
    tr_pipe.push_back(r.pipeline_s);
  }
  for (const RepResult& r : un) un_pipe.push_back(r.pipeline_s);
  const double overhead = trimmed_mean(tr_pipe) - trimmed_mean(un_pipe);

  std::vector<Metric> ms;
  for (const LayerMetric& m : layer_metrics()) {
    std::vector<double> xs;
    for (const Layers& l : layers) xs.push_back(m.of(l));
    ms.push_back({m.name, m.unit, trimmed_mean(xs)});
  }
  ms.push_back({"trace.overhead_s", "s", overhead});

  print_layer_table(layers, trimmed_mean(tr_pipe));
  std::printf("tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s "
              "per repetition\n",
              trimmed_mean(tr_pipe), trimmed_mean(un_pipe), overhead);
  const std::string spans = a.work_dir + "/spans-" + w.name + ".tsv";
  const e2e::trace::Totals all = e2e::trace::totals();
  std::uint64_t recorded = 0;
  for (const std::uint64_t c : all.calls) recorded += c;
  std::printf("spans: %zu of %llu written to %s\n",
              e2e::trace::write_spans(spans),
              static_cast<unsigned long long>(recorded), spans.c_str());
  tally.print();
  print_result(tally.correct(), tally.attempted, tally.failed, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const std::size_t threads = std::min<std::size_t>(
        2, std::max(1u, std::thread::hardware_concurrency()));
    e2e::Workload w = e2e::make_workload(a.workload, threads);
    print_stamp(a, w);
    std::filesystem::create_directories(a.work_dir);
    const e2e::Runner runner(std::move(w), a.seed,
                             a.work_dir + "/" + a.workload);
    return a.trace ? run_traced(a, runner) : run_plain(a, runner);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
