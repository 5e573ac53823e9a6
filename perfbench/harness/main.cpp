// perfbench — the benchmark harness behind perfbench/run.py.
//
//   perfbench prepare --workload W --seed S --dir D [--lines N]
//                     [--ingest-lines M]
//   perfbench fit     --workload W --dir D
//   perfbench load    --port P --stream F --pairs F --plan SPEC
//                     [--warm F] [--ingest F] [--limit-us U] [--seed S]
//                     [--daemon-pid P] [--admin-port A] [--max-late-us U]
//   perfbench verify  --pairs F[,F...] --registry D --ref-dir D
//   perfbench layers  --dir D [--threads T] [--window W] [--lo-from I]
//                     [--lo-lines N] [--seed S]
//
// A load plan is a comma-separated list of phases: warm:RATE, prime:RATE:S,
// lo:RATE:S, hi:RATE:S, delack:RATE:S, ingest:RATE:S and
// ladder:FIRST_RATE:RATIO:STEPS:S (run.py builds it).
//
// Every subcommand prints one JSON object on stdout.

#include <exception>
#include <iostream>
#include <string>

#include "harness/bench.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench <prepare|fit|load|verify|layers> "
                 "[--flag value]...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Flags flags(argc, argv, 2);
    if (cmd == "prepare") return perfbench::cmd_prepare(flags);
    if (cmd == "fit") return perfbench::cmd_fit(flags);
    if (cmd == "load") return perfbench::cmd_load(flags);
    if (cmd == "verify") return perfbench::cmd_verify(flags);
    if (cmd == "layers") return perfbench::cmd_layers(flags);
    std::cerr << "perfbench: unknown subcommand " << cmd << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << cmd << ": " << e.what() << '\n';
    return 1;
  }
}
