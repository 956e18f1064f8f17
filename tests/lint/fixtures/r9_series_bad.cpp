// R9 fixture: the event kernel's schedule_in and schedule_series are seed
// schedulers, flagged directly: nothing in this file defines them, so no
// wrapper propagation can be what catches them. The by-value capture
// handed to the series (`arrivals`) stays silent.
namespace fx {

struct Kernel {
  template <typename F> void schedule_in(long delay, F&& fn);
  template <typename At, typename Fire>
  void schedule_series(unsigned long n, At at, Fire fire);
};

void replay(Kernel& sim, const long* arrivals, int& submitted) {
  sim.schedule_series(
      8, [arrivals](unsigned long i) { return arrivals[i]; },
      [&submitted](unsigned long) { ++submitted; });
  sim.schedule_in(5, [&submitted] { ++submitted; });
}

}  // namespace fx
