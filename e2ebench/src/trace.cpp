#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace e2e::trace {

namespace {

struct SpanRec {
  std::uint32_t id;      ///< 0 for leaf spans
  std::uint32_t parent;  ///< enclosing operation span, 0 at top level
  std::uint32_t rep;
  Name name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRec> spans;
  std::size_t leaves = 0;  ///< layer spans kept in `spans`
  Totals totals;
};

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

// Buffers are registered once per thread and live until the process ends
// (the shared pool's workers outlive any one operation).
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;
thread_local Buffer* t_buf = nullptr;

// Written by the main thread between operations; workers only read them.
std::atomic<std::uint32_t> g_parent{0};
std::atomic<std::uint32_t> g_rep{0};
std::uint32_t g_next_id = 1;

Buffer& buffer() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buf = g_buffers.back().get();
    t_buf->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buf->spans.reserve(1 << 16);
  }
  return *t_buf;
}

// Each thread's buffer keeps the operation spans and its first
// kMaxLeafSpans layer spans for the span file (a traced search makes
// ~700k of them per repetition); later layer spans count in the totals
// only.
constexpr std::size_t kMaxLeafSpans = 100000;

void push(Buffer& b, const SpanRec& s) {
  if (s.id != 0 || b.leaves < kMaxLeafSpans) {
    b.spans.push_back(s);
    if (s.id == 0) ++b.leaves;
  }
  const auto i = static_cast<std::size_t>(s.name);
  ++b.totals.calls[i];
  b.totals.ns[i] += static_cast<std::uint64_t>(s.end_ns - s.start_ns);
}

const char* name_of(Name n) {
  switch (n) {
    case Name::kRep: return "rep";
    case Name::kOpSetupLearn: return "op.setup_learn";
    case Name::kOpSetupRelearn: return "op.setup_relearn";
    case Name::kOpLearn: return "op.learn";
    case Name::kOpRelearn: return "op.relearn";
    case Name::kOpVerify: return "op.verify";
    case Name::kOpSearch: return "op.search";
    case Name::kControlAbstraction: return "reach.control_abstraction";
    case Name::kTmDynamics: return "reach.tm_dynamics";
    case Name::kCount: break;
  }
  return "?";
}

// Times the enclosed call as a leaf span.
class LeafScope {
 public:
  explicit LeafScope(Name n) : name_(n), start_(now_ns()) {}
  ~LeafScope() { record_leaf(name_, start_, now_ns()); }
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Name name_;
  std::int64_t start_;
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void record_leaf(Name n, std::int64_t start_ns, std::int64_t end_ns) {
  push(buffer(), {0, g_parent.load(std::memory_order_relaxed),
                  g_rep.load(std::memory_order_relaxed), n, start_ns,
                  end_ns});
}

void set_rep(std::uint32_t rep) {
  g_rep.store(rep, std::memory_order_relaxed);
}

OpSpan::OpSpan(Name n, bool enabled) : name_(n), enabled_(enabled) {
  if (!enabled_) return;
  id_ = g_next_id++;
  saved_parent_ = g_parent.load(std::memory_order_relaxed);
  g_parent.store(id_, std::memory_order_relaxed);
  start_ = now_ns();
}

OpSpan::~OpSpan() {
  if (!enabled_) return;
  const std::int64_t end = now_ns();
  g_parent.store(saved_parent_, std::memory_order_relaxed);
  push(buffer(), {id_, saved_parent_, g_rep.load(std::memory_order_relaxed),
                  name_, start_, end});
}

Totals totals() {
  Totals t;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (std::size_t i = 0; i < t.calls.size(); ++i) {
      t.calls[i] += b->totals.calls[i];
      t.ns[i] += b->totals.ns[i];
    }
  }
  return t;
}

std::size_t write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "id\tparent\trep\tthread\tname\tstart_ns\tend_ns\n");
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const SpanRec& s : b->spans) {
      std::fprintf(f, "%u\t%u\t%u\t%u\t%s\t%lld\t%lld\n", s.id, s.parent,
                   s.rep, b->thread, name_of(s.name),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

dwv::taylor::TmVec TracedAbstraction::abstract(
    const dwv::taylor::TmEnv& env, const dwv::taylor::TmVec& state,
    const dwv::nn::Controller& ctrl) const {
  LeafScope span(Name::kControlAbstraction);
  return inner_->abstract(env, state, ctrl);
}

dwv::taylor::TmVec TracedDynamics::eval(const dwv::taylor::TmEnv& env,
                                        const dwv::taylor::TmVec& args) const {
  LeafScope span(Name::kTmDynamics);
  return inner_->eval(env, args);
}

void TracedDynamics::eval_into(const dwv::taylor::TmEnv& env,
                               const dwv::taylor::TmVec& args,
                               dwv::taylor::TmVec& out) const {
  LeafScope span(Name::kTmDynamics);
  inner_->eval_into(env, args, out);
}

}  // namespace e2e::trace
