/**
 * @file
 * The unified experiment driver: `tcpni_bench <experiment> [flags]`
 * runs any registered experiment with shared --jobs/--json/--trace
 * handling; `tcpni_bench list` shows what is registered.
 */

#include "experiments.hh"

int
main(int argc, char **argv)
{
    tcpni::exp::ExperimentRegistry reg;
    tcpni::bench::registerAll(reg);
    return tcpni::exp::driverMain(reg, argc, argv);
}
