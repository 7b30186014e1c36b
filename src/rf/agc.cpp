#include "rf/agc.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math_utils.h"

namespace uwb::rf {

Agc::Agc(const AgcParams& params) : params_(params) {
  detail::require(params.target_rms > 0.0, "Agc: target rms must be positive");
  detail::require(params.max_gain_db > params.min_gain_db, "Agc: max gain must exceed min");
  detail::require(params.window > 0, "Agc: window must be positive");
}

void Agc::one_shot(std::span<cplx> x) {
  double acc = 0.0;
  for (const cplx& v : x) acc += std::norm(v);
  const double r = x.empty() ? 0.0 : std::sqrt(acc / static_cast<double>(x.size()));
  const double wanted_db = (r > 0.0) ? amp_to_db(params_.target_rms / r) : params_.max_gain_db;
  gain_db_ = std::clamp(wanted_db, params_.min_gain_db, params_.max_gain_db);
  const double gain = db_to_amp(gain_db_);
  for (cplx& v : x) v *= gain;
}

CplxWaveform Agc::track(const CplxWaveform& x) {
  CplxWaveform out(x.size(), x.sample_rate());
  double gain = db_to_amp(gain_db_);
  std::size_t i = 0;
  while (i < x.size()) {
    const std::size_t end = std::min(i + params_.window, x.size());
    double acc = 0.0;
    for (std::size_t k = i; k < end; ++k) {
      out[k] = x[k] * gain;
      acc += std::norm(out[k]);
    }
    const double r = std::sqrt(acc / static_cast<double>(end - i));
    // Bang-bang loop: step gain toward the target.
    if (r > params_.target_rms * 1.05) {
      gain_db_ -= params_.step_db;
    } else if (r < params_.target_rms * 0.95) {
      gain_db_ += params_.step_db;
    }
    gain_db_ = std::clamp(gain_db_, params_.min_gain_db, params_.max_gain_db);
    gain = db_to_amp(gain_db_);
    i = end;
  }
  return out;
}

}  // namespace uwb::rf
