// mystery_knob is tunable but appears nowhere in the knob documentation.
#pragma once

struct ServerConfig {
  int documented_knob = 4;
  int mystery_knob = 9;
  int excused_knob = 2;  // simlint:allow(knob-drift) internal plumbing, not a tunable
};
