#include "core/export.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace dwv::core {

namespace {

// Streams a double as the shortest decimal that reads back (strtod) to the
// same bits, so an exported bound is exactly the verified one — a fixed
// precision could round it inward, and the exported box would no longer
// enclose the flowpipe.
struct RoundTrip {
  double v;
};

std::ostream& operator<<(std::ostream& os, RoundTrip x) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, x.v);
  return os.write(buf, res.ptr - buf);
}

}  // namespace

void write_history_csv(std::ostream& os,
                       const std::vector<IterationRecord>& history) {
  os << "iter,d_u,d_g,w_goal,w_unsafe,feasible\n";
  for (const auto& r : history) {
    os << r.iter << ',' << RoundTrip{r.geo.d_u} << ',' << RoundTrip{r.geo.d_g}
       << ',' << RoundTrip{r.wass.w_goal} << ','
       << RoundTrip{r.wass.w_unsafe} << ',' << (r.feasible ? 1 : 0) << '\n';
  }
}

void write_history_csv_file(const std::string& path,
                            const std::vector<IterationRecord>& history) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  write_history_csv(os, history);
  if (!os) throw std::runtime_error("write failed: " + path);
}

void write_flowpipe_csv(std::ostream& os, const reach::Flowpipe& fp,
                        double delta) {
  if (fp.step_sets.empty()) {
    os << "step,t\n";
    return;
  }
  const std::size_t dim = fp.step_sets.front().dim();
  os << "step,t";
  for (std::size_t d = 0; d < dim; ++d) {
    os << ",x" << d << "_lo,x" << d << "_hi";
  }
  os << '\n';
  for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
    os << k << ',' << RoundTrip{static_cast<double>(k) * delta};
    for (std::size_t d = 0; d < dim; ++d) {
      os << ',' << RoundTrip{fp.step_sets[k][d].lo()} << ','
         << RoundTrip{fp.step_sets[k][d].hi()};
    }
    os << '\n';
  }
}

void write_flowpipe_csv_file(const std::string& path,
                             const reach::Flowpipe& fp, double delta) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  write_flowpipe_csv(os, fp, delta);
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace dwv::core
