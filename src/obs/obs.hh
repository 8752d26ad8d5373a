/**
 * @file
 * Trace-hook entry point (DESIGN.md §6).
 *
 * Every component trace hook goes through EMC_OBS_POINT — never call
 * Tracer::record directly from simulator code (tools/emclint
 * enforces this with the trace-hook rule). The macro is a single
 * predictable null test when no tracer is attached, and compiles to
 * nothing when the EMC_SIM_TRACE CMake option is OFF, so hook
 * arguments must be free of side effects: they are not evaluated in
 * a hook-stripped build.
 */

#ifndef EMC_OBS_OBS_HH
#define EMC_OBS_OBS_HH

#include "obs/trace.hh"

#ifdef EMC_SIM_TRACE
#define EMC_OBS_POINT(tracer, ...)                                     \
    do {                                                               \
        if (tracer)                                                    \
            (tracer)->record(__VA_ARGS__);                             \
    } while (0)
#else
#define EMC_OBS_POINT(tracer, ...)                                     \
    do {                                                               \
    } while (0)
#endif

#endif // EMC_OBS_OBS_HH
