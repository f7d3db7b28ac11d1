// Span recording for the traced benchmark run, and the decorators that
// produce the per-layer spans from outside the library.
//
// Spans live in per-thread memory buffers (no locks or atomics on the
// recording path beyond the first span of a thread) and are written out
// once, when the run ends. A span is (name, start, end, parent, repetition
// id, thread). Operation spans (one per learn / relearn / verify / search
// call) carry ids; layer spans inside them are leaves whose parent is the
// operation span running on the main thread when they started. The
// per-layer totals count every span.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "reach/control_abstraction.hpp"
#include "reach/tm_dynamics.hpp"

namespace e2e::trace {

/// Span names. Layer names follow the library's modules.
enum class Name : std::uint8_t {
  kRep,
  kOpSetupLearn,
  kOpSetupRelearn,
  kOpLearn,
  kOpRelearn,
  kOpVerify,
  kOpSearch,
  kControlAbstraction,  ///< reach::ControlAbstraction::abstract
  kTmDynamics,          ///< reach::TmDynamics::eval / eval_into
  kCount,
};

/// Calls and busy nanoseconds per span name, summed over threads.
struct Totals {
  std::array<std::uint64_t, static_cast<std::size_t>(Name::kCount)> calls{};
  std::array<std::uint64_t, static_cast<std::size_t>(Name::kCount)> ns{};

  std::uint64_t calls_of(Name n) const {
    return calls[static_cast<std::size_t>(n)];
  }
  double seconds_of(Name n) const {
    return 1e-9 * static_cast<double>(ns[static_cast<std::size_t>(n)]);
  }
};

/// Nanoseconds on the steady clock since the recorder started.
std::int64_t now_ns();

/// Records one finished leaf span on the calling thread's buffer.
void record_leaf(Name n, std::int64_t start_ns, std::int64_t end_ns);

/// Sets the repetition id stamped on subsequent spans (main thread, while
/// no worker is inside a span).
void set_rep(std::uint32_t rep);

/// Scoped operation span on the main thread; layer spans recorded while it
/// is open name it as their parent.
class OpSpan {
 public:
  OpSpan(Name n, bool enabled);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  Name name_;
  bool enabled_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_parent_ = 0;
  std::int64_t start_ = 0;
};

/// Sum of every thread's counters so far. Call between operations, when
/// the pool's workers are idle (parallel_for's join orders their writes
/// before this read).
Totals totals();

/// Writes the kept spans as tab-separated lines (id, parent, rep, thread,
/// name, start_ns, end_ns); returns the count. Every operation span is
/// kept, and each thread's first 100000 layer spans.
std::size_t write_spans(const std::string& path);

/// ControlAbstraction decorator: forwards every virtual and records a
/// reach.control_abstraction span around abstract().
class TracedAbstraction final : public dwv::reach::ControlAbstraction {
 public:
  explicit TracedAbstraction(dwv::reach::ControlAbstractionPtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  dwv::taylor::TmVec abstract(const dwv::taylor::TmEnv& env,
                              const dwv::taylor::TmVec& state,
                              const dwv::nn::Controller& ctrl) const override;

 private:
  dwv::reach::ControlAbstractionPtr inner_;
};

/// TmDynamics decorator: forwards every virtual and records a
/// reach.tm_dynamics span around each vector-field evaluation.
class TracedDynamics final : public dwv::reach::TmDynamics {
 public:
  explicit TracedDynamics(dwv::reach::TmDynamicsPtr inner)
      : inner_(std::move(inner)) {}
  std::size_t state_dim() const override { return inner_->state_dim(); }
  dwv::taylor::TmVec eval(const dwv::taylor::TmEnv& env,
                          const dwv::taylor::TmVec& args) const override;
  void eval_into(const dwv::taylor::TmEnv& env,
                 const dwv::taylor::TmVec& args,
                 dwv::taylor::TmVec& out) const override;
  bool replay_safe() const override { return inner_->replay_safe(); }
  bool has_state_jacobian() const override {
    return inner_->has_state_jacobian();
  }
  bool state_jacobian(const dwv::interval::IVec& xu_box,
                      dwv::reach::sym::IMat& out) const override {
    return inner_->state_jacobian(xu_box, out);
  }

 private:
  dwv::reach::TmDynamicsPtr inner_;
};

}  // namespace e2e::trace
