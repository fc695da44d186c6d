/**
 * @file
 * CPU-time clocks for the benchmark's timings.
 *
 * The benchmark times core-seconds, not wall-seconds: on a virtual
 * machine whose host steals CPU (paravirtual steal-time accounting),
 * a fixed loop's wall time swings with the host's load while its CPU
 * time holds still (README.md, "Noise").
 */

#ifndef FLEETBENCH_CPU_TIME_HH
#define FLEETBENCH_CPU_TIME_HH

#include <ctime>

namespace fleetbench
{

inline double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** CPU seconds of every thread of this process. */
inline double
processCpuSeconds()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/** CPU seconds of the calling thread. */
inline double
threadCpuSeconds()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

} // namespace fleetbench

#endif // FLEETBENCH_CPU_TIME_HH
