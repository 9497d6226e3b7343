"""simcheck: static determinism analysis for the mpinetsim simulator.

The simulator's contract is determinism: two runs of the same
configuration produce bit-identical results, at any --jobs. simcheck
enforces it over the source tree with one dependency-free token frontend
(parse.py) and two kinds of rules.

Six per-line pattern rules over comment- and string-stripped text, each
gated by directory:

  wall-clock       host clocks (std::chrono clocks, time(), gettimeofday);
                   simulated time comes from sim::Engine.
  randomness       std::random_device, rand(), srand(); draws come from
                   the seeded generators in util/rng.hpp.
  stdout           std::cout / printf / puts in library code.
  threading        threads, atomics and locks outside sweep/ and pdes/.
  fault-alloc      heap allocation and <random> under fault/.
  model-alloc      std::make_shared / std::function under model/.

Structural rules over the parsed IR (declarations, function bodies, the
call graph, lambda captures, statics):

  coro-ref-escape  a by-reference coroutine lambda that is not co_awaited
                   in place, passed directly to run(), or bound with
                   `auto name =` and only ever co_awaited. The lambda dies
                   with its frame; the coroutine frame outlives it.
  ptr-key          std::map/std::set (and unordered cousins) keyed on a
                   pointer type — iteration order then depends on host
                   addresses, the exact bug class mpi::Mpi::canon papers
                   over for regcache/MMU timings.
  unordered-iter   iteration over an unordered_* container whose loop body
                   can leak the (host-hash-dependent) visit order into
                   sim-visible state: writes to members/globals, mutating
                   sink calls, order-sensitive early exits, or locals that
                   flow into the return value.
  hot-alloc        call-graph allocation proof: everything reachable from
                   the MsgFlow packet machine, the fault Injector's verdict
                   paths and Engine::step must be transitively free of
                   operator new / std::function construction / container
                   growth. Functions that own an *intentional, audited*
                   allocation boundary (slab refill, amortized heap growth)
                   carry the MNS_HOT annotation: their own body is exempt,
                   their callees are still checked.
  pdes-static      PDES-readiness audit: every namespace-scope/static/
                   thread_local variable, classified (mutable / per-thread
                   / const-after-init), with the set of event handlers that
                   can reach it. Emitted as simcheck_state.json — the
                   shared-state worklist the partitioned-engine work will
                   consume. Mutable shared statics are findings; per-thread
                   and const-after-init state is reported but legal.

Suppress a finding with `// simcheck-allow: <rule>` on its line or the
line above. `python3 tools/simcheck/cli.py --help` for usage.
"""

__version__ = "1.0"
