#include "core/residual.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "support/contracts.hpp"

namespace msptrsv::core {

value_t residual_inf_norm(const sparse::CscMatrix& a,
                          std::span<const value_t> x,
                          std::span<const value_t> b) {
  MSPTRSV_REQUIRE(b.size() == static_cast<std::size_t>(a.rows),
                  "rhs length must match matrix rows");
  const std::vector<value_t> ax = sparse::multiply(a, x);
  value_t worst = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    worst = std::max(worst, std::abs(ax[i] - b[i]));
  }
  return worst;
}

value_t relative_residual(const sparse::CscMatrix& a,
                          std::span<const value_t> x,
                          std::span<const value_t> b) {
  value_t bnorm = 0.0;
  for (value_t v : b) bnorm = std::max(bnorm, std::abs(v));
  const value_t r = residual_inf_norm(a, x, b);
  if (bnorm == 0.0) return r == 0.0 ? 0.0 : r;
  return r / bnorm;
}

value_t max_relative_difference(std::span<const value_t> x,
                                std::span<const value_t> y) {
  MSPTRSV_REQUIRE(x.size() == y.size(), "vectors must have equal length");
  value_t worst = 0.0;
  std::size_t i = 0;
#if defined(__SSE2__)
  // Every quotient is >= +0 or NaN, and std::max(worst, NaN) keeps worst,
  // so the loop returns the largest non-NaN quotient in any order. maxpd
  // returns its second operand when either is NaN, which puts the NaN
  // rule in the same place: two lanes give the scalar loop's value.
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  __m128d lanes = _mm_setzero_pd();
  for (; i + 2 <= x.size(); i += 2) {
    const __m128d xv = _mm_loadu_pd(x.data() + i);
    const __m128d yv = _mm_loadu_pd(y.data() + i);
    const __m128d denom = _mm_max_pd(_mm_and_pd(yv, abs_mask), one);
    const __m128d q = _mm_div_pd(_mm_and_pd(_mm_sub_pd(xv, yv), abs_mask),
                                 denom);
    lanes = _mm_max_pd(q, lanes);
  }
  worst = std::max(_mm_cvtsd_f64(lanes),
                   _mm_cvtsd_f64(_mm_unpackhi_pd(lanes, lanes)));
#endif
  for (; i < x.size(); ++i) {
    const value_t denom = std::max<value_t>(1.0, std::abs(y[i]));
    worst = std::max(worst, std::abs(x[i] - y[i]) / denom);
  }
  return worst;
}

}  // namespace msptrsv::core
