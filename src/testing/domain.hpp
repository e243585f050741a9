// domain.hpp — repo-specific generators for the property-based suites.
//
// Everything the differential tests randomize lives here: refinement
// levels, lattice points, distinct-cell particle sets (the occupancy
// structures require one particle per cell — the shrinkers preserve the
// invariant), curve kinds, processor counts shaped to each topology's
// validity rule, and whole topology cases. Counterexample printing for
// these types is wired into the runner via Printer specializations, so a
// shrunk failure reads as geometry, not bytes.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "distribution/distribution.hpp"
#include "sfc/curve.hpp"
#include "sfc/point.hpp"
#include "testing/gen.hpp"
#include "testing/property.hpp"
#include "topology/factory.hpp"
#include "topology/topology.hpp"

namespace sfc::pbt {

// ------------------------------------------------------------- geometry

inline Gen<unsigned> level_in(unsigned lo, unsigned hi) {
  return unsigned_in(lo, hi);
}

/// A lattice point on the level-`level` grid, shrinking each coordinate
/// toward zero (one coordinate per candidate, so shrunk failures end up
/// on the axes or at the origin).
template <int D>
Gen<Point<D>> point_on(unsigned level) {
  const std::uint64_t side = std::uint64_t{1} << level;
  return Gen<Point<D>>{
      [side](Rand& r) {
        Point<D> p{};
        for (int i = 0; i < D; ++i) {
          p[i] = static_cast<std::uint32_t>(r.below(side));
        }
        return p;
      },
      [](const Point<D>& p, std::vector<Point<D>>& out) {
        for (int i = 0; i < D; ++i) {
          if (p[i] == 0) continue;
          std::vector<std::uint32_t> cands;
          shrink_integral_toward<std::uint32_t>(0, p[i], cands);
          for (std::uint32_t c : cands) {
            Point<D> q = p;
            q[i] = c;
            out.push_back(q);
          }
        }
      }};
}

namespace detail_domain {

template <int D>
bool all_distinct(const std::vector<Point<D>>& pts, unsigned level) {
  std::set<std::uint64_t> keys;
  for (const auto& p : pts) {
    if (!keys.insert(pack(p, level)).second) return false;
  }
  return keys.size() == pts.size();
}

}  // namespace detail_domain

/// `min_n`..`max_n` particles in *distinct* cells of the level grid (the
/// invariant OccupancyGrid and CellTree require). max_n must leave slack
/// in the grid (max_n <= grid_size/2) so rejection terminates quickly.
/// Shrinks drop particles and move them toward the origin, discarding any
/// candidate that would collide two particles.
template <int D>
Gen<std::vector<Point<D>>> distinct_points(unsigned level, std::size_t min_n,
                                           std::size_t max_n) {
  const Gen<Point<D>> elem = point_on<D>(level);
  return Gen<std::vector<Point<D>>>{
      [elem, level, min_n, max_n](Rand& r) {
        const std::size_t n = r.between(min_n, max_n);
        std::vector<Point<D>> pts;
        std::set<std::uint64_t> keys;
        pts.reserve(n);
        while (pts.size() < n) {
          Point<D> p = elem.sample(r);
          if (keys.insert(pack(p, level)).second) pts.push_back(p);
        }
        return pts;
      },
      [elem, level, min_n](const std::vector<Point<D>>& v,
                           std::vector<std::vector<Point<D>>>& out) {
        std::vector<std::vector<Point<D>>> raw;
        shrink_vector(elem, min_n, v, raw);
        for (auto& cand : raw) {
          if (detail_domain::all_distinct<D>(cand, level)) {
            out.push_back(std::move(cand));
          }
        }
      }};
}

/// `min_n`..`max_n` particles drawn from one of the *implemented particle
/// distributions* (uniform through boundary/skewed) instead of the
/// uniform lattice of distinct_points — property suites that care about
/// realistic clustering (the dynamics differ suite, the sampler tests)
/// draw these so shrunk counterexamples still carry the distribution's
/// shape. Distinctness comes from the sampler's own rejection loop;
/// shrinking only drops particles (repositioning would leave the
/// distribution), preserving the invariant for free.
template <int D>
Gen<std::vector<Point<D>>> distributed_points(dist::DistKind kind,
                                              unsigned level,
                                              std::size_t min_n,
                                              std::size_t max_n) {
  return Gen<std::vector<Point<D>>>{
      [kind, level, min_n, max_n](Rand& r) {
        dist::SampleConfig cfg;
        cfg.count = r.between(min_n, max_n);
        cfg.level = level;
        cfg.seed = r.below(std::uint64_t{1} << 48);
        return dist::sample_particles<D>(kind, cfg);
      },
      [min_n](const std::vector<Point<D>>& v,
              std::vector<std::vector<Point<D>>>& out) {
        // Halve, then drop one element at a time (front/back) — subsets
        // of a distinct set stay distinct.
        if (v.size() > min_n) {
          const std::size_t half = v.size() / 2;
          if (half >= min_n) {
            out.emplace_back(v.begin(), v.begin() + half);
          }
          out.emplace_back(v.begin() + 1, v.end());
          out.emplace_back(v.begin(), v.end() - 1);
        }
      }};
}

// --------------------------------------------------------------- curves

/// Any implemented 2-D curve, shrinking toward Hilbert.
inline Gen<CurveKind> any_curve2() {
  return element_of(std::vector<CurveKind>(std::begin(kAllCurves),
                                           std::end(kAllCurves)));
}

/// The paper's four curves.
inline Gen<CurveKind> paper_curve() {
  return element_of(std::vector<CurveKind>(std::begin(kPaperCurves),
                                           std::end(kPaperCurves)));
}

/// Curves valid in three dimensions (no Moore).
inline Gen<CurveKind> any_curve3() {
  return element_of(std::vector<CurveKind>(std::begin(kCurves3D),
                                           std::end(kCurves3D)));
}

// --------------------------------------------------------- distributions

/// Any implemented particle distribution (extensions included),
/// shrinking toward Uniform.
inline Gen<dist::DistKind> any_distribution() {
  return element_of(std::vector<dist::DistKind>(
      std::begin(dist::kExtendedDistributions),
      std::end(dist::kExtendedDistributions)));
}

// ------------------------------------------------------ processor counts

/// 2^m for m in [0, max_log], shrinking toward 1.
inline Gen<topo::Rank> pow2_procs(unsigned max_log) {
  std::vector<topo::Rank> opts;
  for (unsigned m = 0; m <= max_log; ++m) opts.push_back(topo::Rank{1} << m);
  return element_of(std::move(opts));
}

/// 4^m for m in [0, max_log4], shrinking toward 1 (mesh/torus/quadtree
/// validity in 2-D).
inline Gen<topo::Rank> pow4_procs(unsigned max_log4) {
  std::vector<topo::Rank> opts;
  for (unsigned m = 0; m <= max_log4; ++m) {
    opts.push_back(topo::Rank{1} << (2 * m));
  }
  return element_of(std::move(opts));
}

/// Any processor count in [lo, hi] (bus/ring accept every p).
inline Gen<topo::Rank> any_procs(topo::Rank lo, topo::Rank hi) {
  return integral_in<topo::Rank>(lo, hi);
}

// ------------------------------------------------------- topology cases

/// One fully specified 2-D interconnect: kind, a processor count valid
/// for that kind, and the ranking curve (used by mesh/torus only).
struct TopoCase {
  topo::TopologyKind kind = topo::TopologyKind::kBus;
  topo::Rank procs = 1;
  CurveKind ranking = CurveKind::kHilbert;

  std::unique_ptr<topo::Topology> make() const {
    const std::unique_ptr<Curve<2>> curve = make_curve<2>(ranking);
    return topo::make_topology<2>(kind, procs, curve.get());
  }
};

/// Topology cases with procs <= `max_procs` (every kind's valid ladder is
/// truncated to the cap). Shrinks walk procs down the kind's own ladder,
/// then simplify the kind to a bus of the same size, then the ranking
/// toward Hilbert.
Gen<TopoCase> topology_case(topo::Rank max_procs);

// ----------------------------------------------------- failure printing

namespace detail {

template <int D>
struct Printer<Point<D>> {
  static std::string print(const Point<D>& p) { return to_string(p); }
};

template <typename T>
struct Printer<std::vector<T>> {
  static std::string print(const std::vector<T>& v) {
    // Appends only: gcc 12's -Wrestrict misfires on `"..." + string&&`
    // once this is inlined into an optimized build.
    std::string s = "[";
    s += std::to_string(v.size());
    s += " elems:";
    const std::size_t shown = v.size() < 16 ? v.size() : 16;
    for (std::size_t i = 0; i < shown; ++i) {
      s += ' ';
      s += Printer<T>::print(v[i]);
    }
    if (shown < v.size()) s += " ...";
    s += ']';
    return s;
  }
};

template <typename A, typename B>
struct Printer<std::pair<A, B>> {
  static std::string print(const std::pair<A, B>& v) {
    std::string s = "(";  // appends only: see Printer<std::vector<T>>
    s += Printer<A>::print(v.first);
    s += ", ";
    s += Printer<B>::print(v.second);
    s += ')';
    return s;
  }
};

template <>
struct Printer<CurveKind> {
  static std::string print(const CurveKind& k) {
    return std::string(curve_name(k));
  }
};

template <>
struct Printer<dist::DistKind> {
  static std::string print(const dist::DistKind& k) {
    return std::string(dist::dist_name(k));
  }
};

template <>
struct Printer<topo::TopologyKind> {
  static std::string print(const topo::TopologyKind& k) {
    return std::string(topo::topology_name(k));
  }
};

template <>
struct Printer<TopoCase> {
  static std::string print(const TopoCase& t) {
    std::string s = "{";  // appends only: see Printer<std::vector<T>>
    s += topo::topology_name(t.kind);
    s += ", p=";
    s += std::to_string(t.procs);
    s += ", ranking=";
    s += curve_name(t.ranking);
    s += '}';
    return s;
  }
};

}  // namespace detail

}  // namespace sfc::pbt
