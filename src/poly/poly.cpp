#include "poly/poly.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dwv::poly {

std::uint32_t total_degree(const Exponents& e) {
  std::uint32_t d = 0;
  for (auto x : e) d += x;
  return d;
}

namespace {

[[noreturn]] void throw_key_overflow(std::size_t nvars, std::size_t var,
                                     std::uint64_t exp) {
  std::ostringstream os;
  os << "poly: exponent " << exp << " of variable " << var
     << " exceeds the packed-key budget (" << key_bits(nvars)
     << " bits per variable over " << nvars
     << " variables, max exponent " << key_max_exp(nvars) << ")";
  throw std::overflow_error(os.str());
}

}  // namespace

bool try_encode_key(const Exponents& e, std::uint64_t& key) {
  const std::size_t n = e.size();
  const std::uint32_t bits = key_bits(n);
  const std::uint32_t cap = key_max_exp(n);
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (e[i] > cap) return false;
    k = (k << bits) | static_cast<std::uint64_t>(e[i]);
  }
  key = k;
  return true;
}

std::uint64_t encode_key(const Exponents& e) {
  const std::size_t n = e.size();
  const std::uint32_t cap = key_max_exp(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (e[i] > cap) throw_key_overflow(n, i, e[i]);
  }
  std::uint64_t k = 0;
  const std::uint32_t bits = key_bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    k = (k << bits) | static_cast<std::uint64_t>(e[i]);
  }
  return k;
}

void decode_key(std::uint64_t key, std::size_t nvars, Exponents& out) {
  out.resize(nvars);
  for (std::size_t i = 0; i < nvars; ++i) out[i] = key_exp(key, nvars, i);
}

void stable_sort_terms(std::vector<Term>& v, std::vector<Term>& tmp) {
  const std::size_t total = v.size();
  if (total < 2) return;
  std::vector<Term>* src = &v;
  std::vector<Term>* dst = &tmp;
  for (std::size_t width = 1; width < total; width *= 2) {
    dst->resize(total);
    for (std::size_t start = 0; start < total; start += 2 * width) {
      const std::size_t mid = std::min(start + width, total);
      const std::size_t end = std::min(start + 2 * width, total);
      std::size_t i = start, j = mid, w = start;
      // <= keeps equal keys in input order (left run first): stability.
      while (i < mid && j < end) {
        if ((*src)[i].key <= (*src)[j].key)
          (*dst)[w++] = (*src)[i++];
        else
          (*dst)[w++] = (*src)[j++];
      }
      while (i < mid) (*dst)[w++] = (*src)[i++];
      while (j < end) (*dst)[w++] = (*src)[j++];
    }
    std::swap(src, dst);
  }
  if (src != &v) v.swap(*src);
}

Poly Poly::constant(std::size_t nvars, double c) {
  Poly p(nvars);
  if (c != 0.0) p.terms_.push_back({0, c});
  return p;
}

Poly Poly::variable(std::size_t nvars, std::size_t i) {
  assert(i < nvars);
  if (key_max_exp(nvars) < 1) throw_key_overflow(nvars, i, 1);
  Poly p(nvars);
  p.terms_.push_back({1ull << key_shift(nvars, i), 1.0});
  return p;
}

std::uint32_t Poly::degree() const {
  std::uint32_t d = 0;
  for (const Term& t : terms_) d = std::max(d, key_degree(t.key, nvars_));
  return d;
}

double Poly::coeff(const Exponents& e) const {
  if (e.size() != nvars_) return 0.0;
  std::uint64_t key = 0;
  if (!try_encode_key(e, key)) return 0.0;
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), key,
      [](const Term& t, std::uint64_t k) { return t.key < k; });
  return (it != terms_.end() && it->key == key) ? it->coeff : 0.0;
}

void Poly::add_term(const Exponents& e, double c) {
  assert(e.size() == nvars_);
  if (c == 0.0) return;
  add_term_key(encode_key(e), c);
}

void Poly::add_term_key(std::uint64_t key, double c) {
  if (c == 0.0) return;
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), key,
      [](const Term& t, std::uint64_t k) { return t.key < k; });
  if (it != terms_.end() && it->key == key) {
    it->coeff += c;
    if (it->coeff == 0.0) terms_.erase(it);
  } else {
    terms_.insert(it, Term{key, c});
  }
}

// Merge a and b into out. Per common key the single addition a.c + (+-b.c)
// matches what the old `for (o terms) add_term(e, c)` loop computed; zero
// contributions are skipped and exactly-zero sums dropped, replicating
// add_term's semantics bit for bit.
void Poly::merge_into(const Poly& a, const Poly& b, bool negate, Poly& out) {
  assert(&out != &a && &out != &b);
  assert(a.nvars_ == b.nvars_ || a.is_zero() || b.is_zero());
  out.reset(a.nvars_ != 0 ? a.nvars_ : b.nvars_);
  const std::size_t na = a.terms_.size(), nb = b.terms_.size();
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const Term& ta = a.terms_[i];
    const Term& tb = b.terms_[j];
    if (ta.key < tb.key) {
      out.terms_.push_back(ta);
      ++i;
    } else if (ta.key > tb.key) {
      const double cb = negate ? -tb.coeff : tb.coeff;
      if (cb != 0.0) out.terms_.push_back({tb.key, cb});
      ++j;
    } else {
      const double cb = negate ? -tb.coeff : tb.coeff;
      if (cb == 0.0) {
        out.terms_.push_back(ta);
      } else {
        const double sum = ta.coeff + cb;
        if (sum != 0.0) out.terms_.push_back({ta.key, sum});
      }
      ++i;
      ++j;
    }
  }
  for (; i < na; ++i) out.terms_.push_back(a.terms_[i]);
  for (; j < nb; ++j) {
    const double cb = negate ? -b.terms_[j].coeff : b.terms_[j].coeff;
    if (cb != 0.0) out.terms_.push_back({b.terms_[j].key, cb});
  }
}

void Poly::add_into(const Poly& a, const Poly& b, Poly& out) {
  merge_into(a, b, false, out);
}

void Poly::sub_into(const Poly& a, const Poly& b, Poly& out) {
  merge_into(a, b, true, out);
}

Poly& Poly::operator+=(const Poly& o) {
  thread_local Poly tmp;
  merge_into(*this, o, false, tmp);
  nvars_ = tmp.nvars_;
  terms_ = tmp.terms_;
  return *this;
}

Poly& Poly::operator-=(const Poly& o) {
  thread_local Poly tmp;
  merge_into(*this, o, true, tmp);
  nvars_ = tmp.nvars_;
  terms_ = tmp.terms_;
  return *this;
}

Poly& Poly::operator*=(double s) {
  if (s == 0.0) {
    terms_.clear();
    return *this;
  }
  for (Term& t : terms_) t.coeff *= s;
  return *this;
}

// Replicates add_term applied to a key-sorted contribution stream: zero
// contributions are skipped without touching the accumulator, exact-zero
// running sums are erased (a later contribution to the same key then
// re-inserts fresh, exactly like the map's erase + emplace).
void Poly::coalesce_into(const std::vector<Term>& in, Poly& out) {
  std::vector<Term>& t = out.terms_;
  for (const Term& x : in) {
    if (x.coeff == 0.0) continue;
    if (!t.empty() && t.back().key == x.key) {
      t.back().coeff += x.coeff;
      if (t.back().coeff == 0.0) t.pop_back();
    } else {
      t.push_back(x);
    }
  }
}

namespace {

// Conservative overflow guard for key addition: when the per-variable max
// exponents of a and b can sum past the field capacity, adding keys could
// silently corrupt neighbouring fields — a documented hard error instead.
void check_mul_overflow(const Poly& a, const Poly& b, std::size_t nv) {
  if (key_bits(nv) == 0) return;  // constants only: keys are all zero
  const std::uint32_t cap = key_max_exp(nv);
  std::uint32_t da = 0, db = 0;
  for (const Term& t : a.terms()) da = std::max(da, key_degree(t.key, nv));
  for (const Term& t : b.terms()) db = std::max(db, key_degree(t.key, nv));
  if (da <= cap && db <= cap && da + db <= cap) return;  // common fast path
  // Exact per-variable check before giving up.
  assert(nv <= 64);
  std::array<std::uint32_t, 64> ma{}, mb{};
  for (const Term& t : a.terms()) {
    for (std::size_t i = 0; i < nv; ++i)
      ma[i] = std::max(ma[i], key_exp(t.key, nv, i));
  }
  for (const Term& t : b.terms()) {
    for (std::size_t i = 0; i < nv; ++i)
      mb[i] = std::max(mb[i], key_exp(t.key, nv, i));
  }
  for (std::size_t i = 0; i < nv; ++i) {
    const std::uint64_t sum =
        static_cast<std::uint64_t>(ma[i]) + static_cast<std::uint64_t>(mb[i]);
    if (sum > cap) throw_key_overflow(nv, i, sum);
  }
}

}  // namespace

void Poly::mul_into(const Poly& a, const Poly& b, Poly& out, PolyScratch& s) {
  assert(&out != &a && &out != &b);
  assert(a.nvars_ == b.nvars_ || a.is_zero() || b.is_zero());
  out.reset(std::max(a.nvars_, b.nvars_));
  if (a.terms_.empty() || b.terms_.empty()) return;
  check_mul_overflow(a, b, out.nvars_);

  // Row-major products: run ia is key-sorted (b's keys ascend and key
  // addition with a fixed a-key preserves order), so the buffer is |a|
  // sorted runs of length |b| — in exactly the (ia, ib) order the old
  // nested add_term loop accumulated in.
  const std::size_t na = a.terms_.size(), nb = b.terms_.size();
  const std::size_t total = na * nb;
  s.prod.resize(total);
  std::size_t w = 0;
  for (std::size_t ia = 0; ia < na; ++ia) {
    const Term& ta = a.terms_[ia];
    for (std::size_t ib = 0; ib < nb; ++ib) {
      const Term& tb = b.terms_[ib];
      s.prod[w++] = {ta.key + tb.key, ta.coeff * tb.coeff};
    }
  }

  // Stable bottom-up merge of the runs: equal keys keep run order (lower
  // ia first), i.e. the map's accumulation order per output monomial.
  std::vector<Term>* src = &s.prod;
  std::vector<Term>* dst = &s.tmp;
  for (std::size_t width = nb; width < total; width *= 2) {
    dst->resize(total);
    for (std::size_t start = 0; start < total; start += 2 * width) {
      const std::size_t mid = std::min(start + width, total);
      const std::size_t end = std::min(start + 2 * width, total);
      std::size_t i = start, j = mid, k = start;
      while (i < mid && j < end) {
        if ((*src)[i].key <= (*src)[j].key)
          (*dst)[k++] = (*src)[i++];
        else
          (*dst)[k++] = (*src)[j++];
      }
      while (i < mid) (*dst)[k++] = (*src)[i++];
      while (j < end) (*dst)[k++] = (*src)[j++];
    }
    std::swap(src, dst);
  }
  coalesce_into(*src, out);
}

Poly operator*(const Poly& a, const Poly& b) {
  thread_local PolyScratch scratch;
  Poly r;
  Poly::mul_into(a, b, r, scratch);
  return r;
}

double Poly::eval(const linalg::Vec& x) const {
  assert(x.size() == nvars_);
  const std::uint32_t bits = key_bits(nvars_);
  const std::uint64_t mask = key_field_mask(nvars_);
  double s = 0.0;
  for (const Term& t : terms_) {
    double m = t.coeff;
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (t.key >> (bits * (nvars_ - 1 - i))) & mask);
      for (std::uint32_t k = 0; k < e; ++k) m *= x[i];
    }
    s += m;
  }
  return s;
}

interval::Interval Poly::eval_range(const interval::IVec& dom) const {
  assert(dom.size() == nvars_);
  const std::uint32_t bits = key_bits(nvars_);
  const std::uint64_t mask = key_field_mask(nvars_);
  interval::Interval s(0.0);
  for (const Term& t : terms_) {
    interval::Interval m(t.coeff);
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = static_cast<std::uint32_t>(
          (t.key >> (bits * (nvars_ - 1 - i))) & mask);
      if (e > 0) m *= interval::pow_n(dom[i], e);
    }
    s += m;
  }
  return s;
}

Poly Poly::compose(const std::vector<Poly>& subs) const {
  assert(subs.size() == nvars_);
  const std::size_t out_vars = subs.empty() ? 0 : subs[0].nvars();
  Poly r(out_vars);
  for (const Term& t : terms_) {
    Poly m = Poly::constant(out_vars, t.coeff);
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > 0) m = m * pow(subs[i], e);
    }
    r += m;
  }
  return r;
}

void Poly::derivative_into(std::size_t i, Poly& out) const {
  assert(i < nvars_);
  assert(&out != this);
  out.reset(nvars_);
  // d/dx_i subtracts the same key delta from every term with e_i > 0:
  // strictly order-preserving and collision-free, so a plain append keeps
  // the invariant. Zero products are skipped like add_term would.
  const std::uint64_t unit = 1ull << key_shift(nvars_, i);
  for (const Term& t : terms_) {
    const std::uint32_t e = key_exp(t.key, nvars_, i);
    if (e == 0) continue;
    const double c = t.coeff * static_cast<double>(e);
    if (c == 0.0) continue;
    out.terms_.push_back({t.key - unit, c});
  }
}

Poly Poly::derivative(std::size_t i) const {
  Poly r;
  derivative_into(i, r);
  return r;
}

std::pair<Poly, Poly> Poly::split_by_degree(std::uint32_t max_degree) const {
  Poly kept(nvars_);
  Poly dropped(nvars_);
  for (const Term& t : terms_) {
    if (key_degree(t.key, nvars_) <= max_degree)
      kept.terms_.push_back(t);
    else
      dropped.terms_.push_back(t);
  }
  return {kept, dropped};
}

void Poly::split_by_degree_into(std::uint32_t max_degree, Poly& dropped) {
  assert(&dropped != this);
  dropped.reset(nvars_);
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (key_degree(terms_[i].key, nvars_) <= max_degree)
      terms_[w++] = terms_[i];
    else
      dropped.terms_.push_back(terms_[i]);
  }
  terms_.resize(w);
}

void Poly::prune_small_into(double tol, Poly& dropped) {
  assert(&dropped != this);
  dropped.reset(nvars_);
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (std::abs(terms_[i].coeff) <= tol && terms_[i].key != 0)
      dropped.terms_.push_back(terms_[i]);
    else
      terms_[w++] = terms_[i];
  }
  terms_.resize(w);
}

void Poly::truncate_discard(std::uint32_t max_degree, double tol) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const Term& t = terms_[i];
    if (key_degree(t.key, nvars_) > max_degree) continue;
    if (tol > 0.0 && std::abs(t.coeff) <= tol && t.key != 0) continue;
    terms_[w++] = t;
  }
  terms_.resize(w);
}

Poly Poly::prune_small(double tol) {
  Poly dropped;
  prune_small_into(tol, dropped);
  return dropped;
}

void Poly::lift_vars_into(std::size_t new_nvars, Poly& out) const {
  assert(new_nvars >= nvars_);
  assert(&out != this);
  out.reset(new_nvars);
  const std::uint32_t cap = key_max_exp(new_nvars);
  const std::uint32_t new_bits = key_bits(new_nvars);
  for (const Term& t : terms_) {
    if (t.coeff == 0.0) continue;  // the old lift's add_term skipped zeros
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > cap) throw_key_overflow(new_nvars, i, e);
      k = (k << new_bits) | static_cast<std::uint64_t>(e);
    }
    k <<= new_bits * (new_nvars - nvars_);
    out.terms_.push_back({k, t.coeff});
  }
}

void Poly::drop_last_var_into(Poly& out) const {
  assert(nvars_ >= 1);
  assert(&out != this);
  const std::size_t new_nvars = nvars_ - 1;
  out.reset(new_nvars);
  const std::uint32_t new_bits = key_bits(new_nvars);
  const std::uint32_t cap = key_max_exp(new_nvars);
  for (const Term& t : terms_) {
    assert(key_exp(t.key, nvars_, nvars_ - 1) == 0 &&
           "cannot drop a live variable");
    if (t.coeff == 0.0) continue;  // add_term semantics of the old drop
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < new_nvars; ++i) {
      const std::uint32_t e = key_exp(t.key, nvars_, i);
      if (e > cap) throw_key_overflow(new_nvars, i, e);
      k = (k << new_bits) | static_cast<std::uint64_t>(e);
    }
    out.terms_.push_back({k, t.coeff});
  }
}

void Poly::integrate_var_into(std::size_t var, Poly& out) const {
  assert(var < nvars_);
  assert(&out != this);
  out.reset(nvars_);
  const std::uint64_t unit = 1ull << key_shift(nvars_, var);
  const std::uint32_t cap = key_max_exp(nvars_);
  // Adding `unit` to every key preserves order and injectivity, so terms
  // can be appended directly.
  for (const Term& t : terms_) {
    const std::uint32_t e = key_exp(t.key, nvars_, var) + 1;
    if (e > cap) {
      throw std::overflow_error(
          "tm_integrate_time: time exponent exceeds the packed-key budget");
    }
    const double q = t.coeff / static_cast<double>(e);
    if (q == 0.0) continue;
    out.terms_.push_back({t.key + unit, q});
  }
}

void Poly::subst_last_into(double c, Poly& out, PolyScratch& s) const {
  assert(nvars_ >= 1);
  assert(&out != this);
  const std::size_t new_nv = nvars_ - 1;
  out.reset(new_nv);
  std::vector<Term>& buf = s.prod;
  buf.clear();
  const std::uint32_t new_bits = key_bits(new_nv);
  for (const Term& t : terms_) {
    // Repeated multiplication, like the general substitution.
    double scale = 1.0;
    const std::uint32_t e = key_exp(t.key, nvars_, nvars_ - 1);
    for (std::uint32_t k = 0; k < e; ++k) scale *= c;
    // Dropping a field widens the per-field layout, so no exponent can
    // overflow.
    std::uint64_t k2 = 0;
    for (std::size_t i = 0; i < new_nv; ++i) {
      k2 = (k2 << new_bits) |
           static_cast<std::uint64_t>(key_exp(t.key, nvars_, i));
    }
    buf.push_back({k2, t.coeff * scale});
  }
  coalesce_into(buf, out);
}

double Poly::max_abs_coeff() const {
  double m = 0.0;
  for (const Term& t : terms_) m = std::max(m, std::abs(t.coeff));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Poly& p) {
  if (p.terms_.empty()) return os << '0';
  bool first = true;
  for (const Term& t : p.terms_) {
    const double c = t.coeff;
    if (!first) os << (c >= 0 ? " + " : " - ");
    else if (c < 0) os << '-';
    first = false;
    os << std::abs(c);
    for (std::size_t i = 0; i < p.nvars_; ++i) {
      const std::uint32_t e = key_exp(t.key, p.nvars_, i);
      if (e == 0) continue;
      os << "*x" << i;
      if (e > 1) os << '^' << e;
    }
  }
  return os;
}

Poly pow(const Poly& base, std::uint32_t n) {
  Poly r = Poly::constant(base.nvars(), 1.0);
  Poly b = base;
  std::uint32_t k = n;
  while (k > 0) {
    if (k & 1u) r = r * b;
    k >>= 1u;
    if (k) b = b * b;
  }
  return r;
}

}  // namespace dwv::poly
