// mystery_knob is tunable but appears nowhere in the knob documentation;
// fixed_constant is static, so no instance can set it.
#pragma once

struct ServerConfig {
  int documented_knob = 4;
  int mystery_knob = 9;
  int excused_knob = 2;  // simlint:allow(knob-drift) internal plumbing, not a tunable
  static constexpr int fixed_constant = 7;
};
