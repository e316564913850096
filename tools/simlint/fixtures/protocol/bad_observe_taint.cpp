// An observe-only function reaches event scheduling through a helper:
// enabling observability would change the simulation schedule.
struct Sim {
  void after(long delay, int what);
};

struct Probe {
  Sim sim_;

  void nudge() { sim_.after(10, 1); }

  // simlint:observe-only
  long sample() {
    nudge();
    return 7;
  }
};

int main() {
  Probe p;
  return static_cast<int>(p.sample());
}
