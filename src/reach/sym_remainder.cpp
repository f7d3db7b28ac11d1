#include "reach/sym_remainder.hpp"

#include <bit>
#include <cassert>

namespace dwv::reach::sym {

using interval::Interval;
using interval::IVec;

namespace {

// In-place forms of `m = IMat::identity(n)` and `v = IVec(n)`: same values,
// but they reuse the existing storage.
void set_identity(IMat& m, std::size_t n) {
  m.n = n;
  m.e.assign(n * n, Interval(0.0));
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = Interval(1.0);
}

void set_zero(IVec& v, std::size_t n) {
  v.resize(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Interval();
}

}  // namespace

IMat IMat::identity(std::size_t dim) {
  IMat r;
  set_identity(r, dim);
  return r;
}

void imat_mul(const IMat& a, const IMat& b, IMat& out) {
  assert(a.n == b.n);
  assert(&out != &a && &out != &b);
  const std::size_t n = a.n;
  out.n = n;
  out.e.assign(n * n, Interval(0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const Interval& aik = a.at(i, k);
      if (aik.lo() == 0.0 && aik.hi() == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i, j) += aik * b.at(k, j);
      }
    }
  }
}

void imat_apply(const IMat& a, const IVec& v, IVec& out) {
  assert(a.n == v.size());
  assert(&out != &v);
  out.resize(a.n);
  for (std::size_t i = 0; i < a.n; ++i) {
    Interval acc(0.0);
    for (std::size_t j = 0; j < a.n; ++j) acc += a.at(i, j) * v[j];
    out[i] = acc;
  }
}

bool imat_exp(const IMat& j, const Interval& t, std::uint32_t terms,
              IMat& out, ExpScratch& scratch) {
  const std::size_t n = j.n;
  // B = t * J, and an upper bound on ||B||_inf via interval accumulation
  // (a plain double sum could round below the true row sum).
  IMat& b = scratch.b;
  b.n = n;
  b.e.resize(n * n);
  Interval r(0.0);
  for (std::size_t i = 0; i < n; ++i) {
    Interval row(0.0);
    for (std::size_t k = 0; k < n; ++k) {
      b.at(i, k) = t * j.at(i, k);
      row += Interval(b.at(i, k).mag());
    }
    if (row.hi() > r.hi()) r = row;
  }
  const std::uint32_t m = terms;
  const double rhi = r.hi();
  if (!(rhi < static_cast<double>(m + 2))) return false;  // tail diverges

  // Series: out = sum_{q=0}^{m} B^q / q!.
  IMat& pow = scratch.pow;
  IMat& tmp = scratch.tmp;
  set_identity(out, n);
  set_identity(pow, n);
  for (std::uint32_t q = 1; q <= m; ++q) {
    imat_mul(pow, b, tmp);
    const Interval inv_q = Interval(1.0) / Interval(static_cast<double>(q));
    for (auto& entry : tmp.e) entry *= inv_q;
    std::swap(pow, tmp);
    for (std::size_t i = 0; i < n * n; ++i) out.e[i] += pow.e[i];
  }

  // Entrywise tail: |E_pq| <= ||E||_inf <= r^{m+1}/(m+1)! / (1 - r/(m+2)).
  Interval num(1.0);
  Interval fact(1.0);
  for (std::uint32_t q = 1; q <= m + 1; ++q) {
    num *= Interval(rhi);
    fact *= Interval(static_cast<double>(q));
  }
  const Interval geo =
      Interval(1.0) /
      (Interval(1.0) - Interval(rhi) / Interval(static_cast<double>(m + 2)));
  const double tail = (num / fact * geo).hi();
  const Interval e = Interval::symmetric(tail);
  for (auto& entry : out.e) entry += e;
  return true;
}

bool imat_exp(const IMat& j, const Interval& t, std::uint32_t terms,
              IMat& out) {
  ExpScratch scratch;
  return imat_exp(j, t, terms, out, scratch);
}

bool TransportMemo::exp(const IMat& j, const Interval& t, std::uint32_t terms,
                        IMat& out) {
  // Key: every bit imat_exp reads, the inputs that vary most between calls
  // (terms, t) first so that a mismatch shows early in the comparison.
  probe_.clear();
  probe_.push_back(j.n);
  probe_.push_back(terms);
  probe_.push_back(std::bit_cast<std::uint64_t>(t.lo()));
  probe_.push_back(std::bit_cast<std::uint64_t>(t.hi()));
  for (const Interval& x : j.e) {
    probe_.push_back(std::bit_cast<std::uint64_t>(x.lo()));
    probe_.push_back(std::bit_cast<std::uint64_t>(x.hi()));
  }

  ++clock_;
  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    if (e.stamp != 0 && e.key == probe_) {
      e.stamp = clock_;
      if (e.ok) out = e.value;
      return e.ok;
    }
    if (e.stamp < victim->stamp) victim = &e;
  }
  victim->stamp = clock_;
  victim->key = probe_;
  victim->ok = imat_exp(j, t, terms, victim->value, scratch_);
  if (victim->ok) out = victim->value;
  return victim->ok;
}

std::size_t TransportMemo::size() const {
  std::size_t k = 0;
  for (const Entry& e : entries_) k += e.stamp != 0 ? 1 : 0;
  return k;
}

void SymRemainderQueue::push(const IVec& j) {
  assert(j.size() == dim_);
  if (cap_ > 0 && m_.size() >= cap_) flush();
  m_.push_back(IMat::identity(dim_));
  j_.push_back(j);
  box_ += j;  // identity transport: box(I * j) = j
}

void SymRemainderQueue::transport(const IMat& a) {
  assert(a.n == dim_);
  for (IMat& m : m_) {
    imat_mul(a, m, tmp_);
    std::swap(m, tmp_);
  }
  recompute_box();
}

void SymRemainderQueue::flush() {
  if (m_.empty()) return;
  const IVec collapsed = box_;
  m_.clear();
  j_.clear();
  m_.push_back(IMat::identity(dim_));
  j_.push_back(collapsed);
  box_ = collapsed;
  ++flushes_;
}

void SymRemainderQueue::clear() {
  m_.clear();
  j_.clear();
  set_zero(box_, dim_);
}

void SymRemainderQueue::recompute_box() {
  set_zero(box_, dim_);
  for (std::size_t k = 0; k < m_.size(); ++k) {
    imat_apply(m_[k], j_[k], t_);
    box_ += t_;
  }
}

}  // namespace dwv::reach::sym
