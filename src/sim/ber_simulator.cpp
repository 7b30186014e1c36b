#include "sim/ber_simulator.h"

#include <algorithm>

namespace uwb::sim {

BerStop scale_stop(BerStop stop, std::size_t error_divisor, std::size_t bits_divisor) {
  stop.min_errors =
      std::max<std::size_t>(1, stop.min_errors / std::max<std::size_t>(1, error_divisor));
  stop.max_bits =
      std::max<std::size_t>(1, stop.max_bits / std::max<std::size_t>(1, bits_divisor));
  return stop;
}

}  // namespace uwb::sim
