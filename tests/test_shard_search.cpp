// Sharded / checkpointable / anytime X_I search (DESIGN.md §16).
//
// The contract under test is BIT-identity: at any shard count, thread
// count, or batch width — in-process or split across shard runs and
// merged, interrupted and resumed (including SIGKILL of a live search
// process, exercised through the dwv CLI) — the search must reproduce the
// single-process InitialSetResult exactly, coverage bits included.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/search_shard.hpp"
#include "golden_search.hpp"
#include "nn/controller.hpp"
#include "ode/benchmarks.hpp"
#include "reach/cache.hpp"
#include "reach/control_abstraction.hpp"
#include "reach/linear_reach.hpp"
#include "reach/tm_flowpipe.hpp"

namespace dwv::core {
namespace {

using linalg::Mat;

bool box_bits_eq(const geom::Box& a, const geom::Box& b) {
  if (a.dim() != b.dim()) return false;
  for (std::size_t d = 0; d < a.dim(); ++d) {
    if (std::bit_cast<std::uint64_t>(a[d].lo()) !=
            std::bit_cast<std::uint64_t>(b[d].lo()) ||
        std::bit_cast<std::uint64_t>(a[d].hi()) !=
            std::bit_cast<std::uint64_t>(b[d].hi())) {
      return false;
    }
  }
  return true;
}

void expect_bits_eq(const InitialSetResult& a, const InitialSetResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.coverage),
            std::bit_cast<std::uint64_t>(b.coverage));
  EXPECT_EQ(a.verifier_calls, b.verifier_calls);
  ASSERT_EQ(a.certified.size(), b.certified.size());
  ASSERT_EQ(a.rejected.size(), b.rejected.size());
  for (std::size_t i = 0; i < a.certified.size(); ++i) {
    EXPECT_TRUE(box_bits_eq(a.certified[i], b.certified[i])) << "cell " << i;
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    EXPECT_TRUE(box_bits_eq(a.rejected[i], b.rejected[i])) << "cell " << i;
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "shard_search_" + name;
}

// ACC with X0 enlarged 3x around its center: the good controller covers
// only the inner part, so the refinement tree mixes certified, rejected,
// and bisected cells at every level (depth 6: 9 certified / 18 rejected).
struct AccSearch {
  AccSearch() {
    bench = ode::make_acc_benchmark();
    spec = bench.spec;
    for (std::size_t d = 0; d < spec.x0.dim(); ++d) {
      const double c = 0.5 * (spec.x0[d].lo() + spec.x0[d].hi());
      const double h = 1.5 * (spec.x0[d].hi() - spec.x0[d].lo());
      spec.x0[d] = interval::Interval(c - h, c + h);
    }
    verifier = std::make_unique<reach::LinearVerifier>(bench.system, spec);
  }
  ode::Benchmark bench;
  ode::ReachAvoidSpec spec;
  std::unique_ptr<reach::LinearVerifier> verifier;
  nn::LinearController mid{Mat{{0.8, -2.75}}};
};

TEST(ShardSearch, ShardedMatchesSingleProcessAtAnyShardAndThreadCount) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 1;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);
  ASSERT_FALSE(single.certified.empty());
  ASSERT_FALSE(single.rejected.empty());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      ShardSearchOptions opt;
      opt.base = base;
      opt.base.threads = threads;
      opt.shards = shards;
      const InitialSetResult res =
          search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_bits_eq(res, single);
    }
  }
}

TEST(ShardSearch, BatchWidthDoesNotChangeBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);
  for (const std::size_t batch : {1u, 3u, 0u}) {
    ShardSearchOptions opt;
    opt.base = base;
    opt.base.batch = batch;
    opt.shards = 2;
    const InitialSetResult res =
        search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
    SCOPED_TRACE("batch=" + std::to_string(batch));
    expect_bits_eq(res, single);
  }
}

TEST(ShardSearch, PrefixReuseAndSymbolicRemainderMatchSingleProcess) {
  const auto bench = ode::make_acc_benchmark();
  reach::TmReachOptions tm_opt;
  tm_opt.symbolic_remainder = true;
  tm_opt.sym_queue_size = 16;
  const reach::TmVerifier verifier(bench.system, bench.spec,
                                   std::make_shared<reach::LinearAbstraction>(),
                                   tm_opt);
  nn::LinearController mid(Mat{{0.45, -1.6}});
  InitialSetOptions base;
  base.max_depth = 4;
  base.threads = 2;
  base.reuse_parent_prefix = true;
  const InitialSetResult single =
      search_initial_set(verifier, bench.spec, mid, base);
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.prefix_grain = 2;
  const InitialSetResult res =
      search_initial_set_sharded(verifier, bench.spec, mid, opt);
  expect_bits_eq(res, single);

  // The lane-batched prefix expansion replays TM prefixes into the shard
  // partition: pin it to the golden bytes of GoldenSearch.
  // AccLinearSymbolicAdaptiveReuse at every K and prefix grain.
  reach::TmReachOptions golden_tm;
  golden_tm.symbolic_remainder = true;
  golden_tm.adaptive = true;
  const reach::TmVerifier golden_v(
      bench.system, bench.spec, std::make_shared<reach::LinearAbstraction>(),
      golden_tm);
  const nn::LinearController golden_ctrl(Mat{{0.7, -2.4}});
  for (const std::size_t shards : {1u, 2u, 3u}) {
    for (const std::size_t grain : {1u, 8u}) {
      ShardSearchOptions g;
      g.base.max_depth = 6;
      g.base.reuse_parent_prefix = true;
      g.base.batch = 0;
      g.base.threads = 1;
      g.shards = shards;
      g.prefix_grain = grain;
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " grain=" + std::to_string(grain));
      golden::expect_golden(
          "acc_linear_symrem_adaptive_reuse_d6",
          search_initial_set_sharded(golden_v, bench.spec, golden_ctrl, g));
    }
  }
}

TEST(ShardSearch, ShardRunsSerializeAndMergeToSingleProcessBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::size_t kShards = 3;
  std::vector<ShardResult> parts;
  for (std::size_t i = 0; i < kShards; ++i) {
    ShardSearchOptions opt;
    opt.base = base;
    opt.shards = kShards;
    opt.shard_index = i;
    const ShardResult sr =
        search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
    EXPECT_TRUE(sr.complete);
    EXPECT_EQ(sr.includes_prefix, i == 0);

    // Round-trip through the file format: load(save(x)) re-serializes to
    // the same bytes, and the loaded part merges like the in-memory one.
    const std::string path = temp_path("part" + std::to_string(i) + ".bin");
    save_shard_result_file(path, sr);
    const ShardResult loaded = load_shard_result_file(path);
    reach::ser::Writer wa, wb;
    put(wa, sr);
    put(wb, loaded);
    EXPECT_EQ(wa.bytes(), wb.bytes());
    std::remove(path.c_str());
    parts.push_back(loaded);
  }
  const InitialSetResult merged = merge_shard_results(s.spec, parts);
  expect_bits_eq(merged, single);
}

// A shard file is a pure function of the search: its records are in
// sequence order, so saving the same shard at 1 and at 4 threads writes
// the same bytes.
TEST(ShardSearch, ShardFileBytesAreThreadCountInvariant) {
  AccSearch s;
  std::vector<std::vector<char>> files;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ShardSearchOptions opt;
    opt.base.max_depth = 8;
    opt.base.threads = threads;
    opt.shards = 2;
    opt.shard_index = 0;
    const ShardResult sr =
        search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
    ASSERT_GT(sr.records.size(), 1u);
    for (std::size_t i = 1; i < sr.records.size(); ++i) {
      ASSERT_LT(sr.records[i - 1].seq, sr.records[i].seq) << "record " << i;
    }
    const std::string path = temp_path("threads" + std::to_string(threads));
    save_shard_result_file(path, sr);
    std::ifstream f(path, std::ios::binary);
    files.emplace_back(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[0] == files[1]);
}

TEST(ShardSearch, MergeRejectsInconsistentParts) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 3;
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.shard_index = 0;
  const ShardResult s0 =
      search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);
  opt.shard_index = 1;
  const ShardResult s1 =
      search_initial_set_shard(*s.verifier, s.spec, s.mid, opt);

  EXPECT_NO_THROW(merge_shard_results(s.spec, {s0, s1}));
  // Wrong part count, duplicate index, foreign fingerprint, incomplete.
  EXPECT_THROW(merge_shard_results(s.spec, {s0}), std::runtime_error);
  EXPECT_THROW(merge_shard_results(s.spec, {s0, s0}),
               std::runtime_error);
  ShardResult alien = s1;
  alien.fingerprint ^= 1;
  EXPECT_THROW(merge_shard_results(s.spec, {s0, alien}),
               std::runtime_error);
  ShardResult partial = s1;
  partial.complete = false;
  EXPECT_THROW(merge_shard_results(s.spec, {s0, partial}),
               std::runtime_error);
}

TEST(ShardSearch, InitialSetResultRoundTripsByteIdentically) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  const InitialSetResult res =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  reach::ser::Writer w;
  put(w, res);
  reach::ser::Reader r(w.bytes());
  InitialSetResult back;
  ASSERT_TRUE(get(r, back));
  EXPECT_EQ(r.remaining(), 0u);
  expect_bits_eq(back, res);
  reach::ser::Writer w2;
  put(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());

  // Truncated payloads must fail get(), never fabricate a result.
  for (const std::size_t cut : {1u, 8u, 17u}) {
    ASSERT_LT(cut, w.bytes().size());
    reach::ser::Reader rt(w.bytes().data(), w.bytes().size() - cut);
    InitialSetResult junk;
    EXPECT_FALSE(get(rt, junk)) << "cut " << cut;
  }

  const std::string path = temp_path("result.bin");
  save_initial_set_result_file(path, 42, res);
  std::uint64_t fp = 0;
  const InitialSetResult from_file = load_initial_set_result_file(path, &fp);
  EXPECT_EQ(fp, 42u);
  expect_bits_eq(from_file, res);
  std::remove(path.c_str());
}

TEST(ShardSearch, FingerprintTracksResultAffectingConfigOnly) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 5;
  base.threads = 1;
  const std::uint64_t a =
      xi_search_fingerprint(*s.verifier, s.spec, s.mid, base);
  base.threads = 8;
  base.batch = 3;
  EXPECT_EQ(a, xi_search_fingerprint(*s.verifier, s.spec, s.mid, base));
  base.max_depth = 6;
  EXPECT_NE(a, xi_search_fingerprint(*s.verifier, s.spec, s.mid, base));
  base.max_depth = 5;
  nn::LinearController other(Mat{{0.46, -1.6}});
  EXPECT_NE(a, xi_search_fingerprint(*s.verifier, s.spec, other, base));
  // A caching wrapper never changes bits, so it shares the fingerprint.
  const reach::CachingVerifier cached(
      std::make_shared<reach::LinearVerifier>(s.bench.system, s.spec),
      reach::FlowpipeCache::Config{});
  EXPECT_EQ(a, xi_search_fingerprint(cached, s.spec, s.mid, base));
}

TEST(ShardSearch, AnytimeProgressIsMonotoneAndCancelable) {
  AccSearch s;
  ShardSearchOptions opt;
  opt.base.max_depth = 6;
  opt.base.threads = 2;
  opt.shards = 2;
  opt.checkpoint_every = 8;
  std::vector<ShardSearchProgress> seen;
  opt.progress = [&seen](const ShardSearchProgress& p) {
    seen.push_back(p);
    return true;
  };
  const InitialSetResult res =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  ASSERT_GE(seen.size(), 2u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].coverage, seen[i - 1].coverage);
    EXPECT_GE(seen[i].verifier_calls, seen[i - 1].verifier_calls);
    EXPECT_EQ(seen[i].rounds, seen[i - 1].rounds + 1);
  }
  EXPECT_EQ(seen.back().pending_cells, 0u);
  EXPECT_EQ(seen.back().certified_cells, res.certified.size());
  EXPECT_EQ(seen.back().rejected_cells, res.rejected.size());
  EXPECT_EQ(seen.back().verifier_calls, res.verifier_calls);

  // Cancelling early yields a partial-but-sound inner approximation.
  std::size_t rounds = 0;
  opt.progress = [&rounds](const ShardSearchProgress&) {
    return ++rounds < 2;
  };
  const InitialSetResult partial =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  EXPECT_LE(partial.coverage, res.coverage + 1e-12);
  EXPECT_LE(partial.verifier_calls, res.verifier_calls);
}

TEST(ShardSearch, CheckpointResumeReproducesUninterruptedBits) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 2;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::string ck = temp_path("resume.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base = base;
  opt.shards = 2;
  opt.checkpoint_file = ck;
  opt.checkpoint_every = 8;

  // Cancel mid-frontier; the checkpoint keeps the pending cells.
  std::size_t rounds = 0;
  opt.progress = [&rounds](const ShardSearchProgress&) {
    return ++rounds < 2;
  };
  const InitialSetResult partial =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  EXPECT_LT(partial.verifier_calls, single.verifier_calls);

  // Resume to completion: bit-identical to the uninterrupted run, and
  // cells already decided before the cancel are not re-verified.
  opt.progress = nullptr;
  const InitialSetResult resumed =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(resumed, single);

  // Resuming a completed checkpoint is a no-op with the same bits.
  const InitialSetResult again =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(again, single);
  std::remove(ck.c_str());
}

TEST(ShardSearch, CheckpointTornTailAndGarbageAreTruncatedOnResume) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = 6;
  base.threads = 1;
  const InitialSetResult single =
      search_initial_set(*s.verifier, s.spec, s.mid, base);

  const std::string ck = temp_path("torn.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base = base;
  opt.checkpoint_file = ck;
  opt.checkpoint_every = 8;
  std::size_t rounds = 0;
  opt.progress = [&rounds](const ShardSearchProgress&) {
    return ++rounds < 3;
  };
  (void)search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);

  // A kill -9 mid-append leaves a half-written snapshot: simulate by
  // appending garbage that cannot checksum, then by truncating into the
  // last record. Both must resume from the last intact snapshot.
  {
    std::ofstream f(ck, std::ios::binary | std::ios::app);
    f.write("\x13garbage-torn-tail\x37", 19);
  }
  opt.progress = nullptr;
  const InitialSetResult resumed =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(resumed, single);

  struct stat st{};
  ASSERT_EQ(::stat(ck.c_str(), &st), 0);
  ASSERT_EQ(::truncate(ck.c_str(), st.st_size - 7), 0);
  const InitialSetResult after_torn =
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  expect_bits_eq(after_torn, single);
  std::remove(ck.c_str());
}

TEST(ShardSearch, CheckpointOfDifferentConfigurationIsRejected) {
  AccSearch s;
  const std::string ck = temp_path("mismatch.ck");
  std::remove(ck.c_str());
  ShardSearchOptions opt;
  opt.base.max_depth = 4;
  opt.checkpoint_file = ck;
  (void)search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt);
  opt.base.max_depth = 5;  // different fingerprint
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  opt.base.max_depth = 4;
  opt.shards = 3;  // same fingerprint, different shard layout
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  std::remove(ck.c_str());
  // Not-a-checkpoint files are rejected, not clobbered.
  {
    std::ofstream f(ck, std::ios::binary);
    f << "this is not a checkpoint file, do not overwrite me";
  }
  opt.shards = 1;
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::runtime_error);
  std::remove(ck.c_str());
}

TEST(ShardSearch, MaxDepthPastSequenceBoundThrows) {
  AccSearch s;
  InitialSetOptions base;
  base.max_depth = kMaxSearchDepth + 1;
  EXPECT_THROW(search_initial_set(*s.verifier, s.spec, s.mid, base),
               std::invalid_argument);
  ShardSearchOptions opt;
  opt.base = base;
  EXPECT_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, opt),
      std::invalid_argument);
  opt.base.max_depth = kMaxSearchDepth;  // the bound itself is legal
  opt.base.threads = 1;
  opt.shards = 2;
  ShardSearchOptions tiny = opt;
  tiny.base.max_depth = 2;
  EXPECT_NO_THROW(
      search_initial_set_sharded(*s.verifier, s.spec, s.mid, tiny));
}

TEST(ShardSearch, DiskSaltMixSeparatesShardCacheLogs) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "shard_salt_mix";
  fs::remove_all(dir);
  reach::FlowpipeCache::Config cfg;
  cfg.dir = dir.string();
  cfg.disk_salt = 0x1234;
  cfg.disk_shards = 1;
  const auto count_files = [&dir] {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++n;
    }
    return n;
  };
  {
    reach::FlowpipeCache c0(cfg);
    EXPECT_TRUE(c0.has_disk_tier());
  }
  const std::size_t base_files = count_files();
  EXPECT_GE(base_files, 1u);
  {
    cfg.disk_salt_mix = 0x9e37;
    reach::FlowpipeCache c1(cfg);  // same dir, distinct salted log files
    EXPECT_TRUE(c1.has_disk_tier());
  }
  EXPECT_EQ(count_files(), 2 * base_files);
  fs::remove_all(dir);
}

// --- SIGKILL crash-resume drill through the dwv CLI ---------------------
// Runs a depth-9 checkpointed search in a subprocess, SIGKILLs it
// mid-frontier (first snapshot on disk = the search is live), resumes
// with the identical command line, and compares result FILE BYTES against
// an uninterrupted run — the end-to-end kill -9 contract of DESIGN.md §16.
#ifdef DWV_CLI_PATH

pid_t spawn_cli(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  static const std::string cli = DWV_CLI_PATH;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) {
      ::dup2(null, 1);
      ::dup2(null, 2);
    }
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST(ShardSearch, SigkillMidSearchResumesToIdenticalResultBytes) {
  if (::access(DWV_CLI_PATH, X_OK) != 0) {
    GTEST_SKIP() << "dwv CLI not built at " << DWV_CLI_PATH;
  }
  const std::string ref = temp_path("kill_ref.bin");
  const std::string out = temp_path("kill_out.bin");
  const std::string ck = temp_path("kill.ck");
  std::remove(ref.c_str());
  std::remove(out.c_str());
  std::remove(ck.c_str());

  const std::vector<std::string> common = {
      "search", "acc",       "--depth",            "9", "--threads", "2",
      "--shards", "2",       "--checkpoint-every", "8"};
  auto with = [&common](std::initializer_list<std::string> extra) {
    std::vector<std::string> v = common;
    v.insert(v.end(), extra);
    return v;
  };

  // Uninterrupted reference run (no checkpoint).
  pid_t pid = spawn_cli(with({"--out", ref}));
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // Checkpointed run, SIGKILLed as soon as the first snapshot lands.
  pid = spawn_cli(with({"--checkpoint", ck, "--out", out}));
  bool killed = false;
  for (int spin = 0; spin < 20000; ++spin) {
    struct stat st{};
    if (::stat(ck.c_str(), &st) == 0 && st.st_size > 28) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    if (::waitpid(pid, &status, WNOHANG) == pid) break;  // finished already
    ::usleep(100);
  }
  if (killed) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_NE(::access(out.c_str(), F_OK), 0)
        << "killed run must not have written a result file";
  }

  // Resume with the identical command line; must finish and write the
  // exact reference bytes.
  pid = spawn_cli(with({"--checkpoint", ck, "--out", out}));
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const std::vector<char> a = slurp(ref);
  const std::vector<char> b = slurp(out);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "resumed result file differs from uninterrupted run";
  std::remove(ref.c_str());
  std::remove(out.c_str());
  std::remove(ck.c_str());
}

// Size-valued flags are parsed strictly: a zero or non-numeric shard
// count must not reach the per-shard thread split (a division by it), and
// a negative one must not wrap to 2^64 - 1 shards. Each malformed value
// is a usage error (exit 2), never a signal.
TEST(ShardSearch, CliRejectsMalformedSizeFlags) {
  if (::access(DWV_CLI_PATH, X_OK) != 0) {
    GTEST_SKIP() << "dwv CLI not built at " << DWV_CLI_PATH;
  }
  const std::vector<std::vector<std::string>> bad = {
      {"--shards", "0"},          {"--shards", "abc"},
      {"--shards", "-1"},         {"--depth", "-1"},
      {"--threads", "x"},         {"--batch", "-2"},
      {"--shard-grain", "1.5"},   {"--checkpoint-every", "-8"},
      {"--shards", "99999999999999999999999"}};
  for (const std::vector<std::string>& flag : bad) {
    SCOPED_TRACE(flag[0] + " " + flag[1]);
    const pid_t pid =
        spawn_cli({"search", "acc", "--depth", "2", flag[0], flag[1]});
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_FALSE(WIFSIGNALED(status));
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
  }
}

#endif  // DWV_CLI_PATH

}  // namespace
}  // namespace dwv::core
