/**
 * @file
 * Flight-recorder management: arming the FlowTracer's fixed-capacity
 * event ring and dumping it to Chrome-trace JSON when something
 * interesting happens (SLO violation, fault-plan clause firing, or an
 * explicit end-of-run request).
 *
 * The ring itself lives in FlowTracer (it shares the emit entry points
 * and event structs with full tracing); this layer owns policy — dump
 * paths, dump budget, and the triggers other subsystems call into.
 * Dumps are numbered (`flight.json` -> `flight.000.json`, ...) so a
 * run with several triggers keeps each pre-incident window.
 */

#ifndef NPF_OBS_FLIGHT_HH
#define NPF_OBS_FLIGHT_HH

#include <cstddef>
#include <string>

namespace npf::obs {

struct FlightOptions
{
    std::size_t capacity = 1u << 16; ///< events retained in the ring
    std::string dumpPath = "flight.json";
    bool dumpOnSlo = false;          ///< dump when SloMonitor trips
    unsigned maxDumps = 64;          ///< budget across one arming
};

class FlightRecorder
{
  public:
    static FlightRecorder &global();

    /** Arm: preallocate the ring and start recording. */
    void arm(FlightOptions opt);

    /** Disarm: stop recording and release the ring. */
    void disarm();

    bool armed() const { return armed_; }
    bool dumpOnSlo() const { return armed_ && opt_.dumpOnSlo; }
    unsigned dumps() const { return dumps_; }

    /**
     * Write the current ring contents to the next numbered dump path.
     * @p reason is logged. Returns false when disarmed, out of dump
     * budget, or the file cannot be written.
     */
    bool dump(const char *reason);

    /** SloMonitor trigger: dump iff armed with dumpOnSlo. */
    void onSloViolation();

  private:
    FlightOptions opt_;
    bool armed_ = false;
    unsigned dumps_ = 0;
};

inline FlightRecorder &
flightRecorder()
{
    return FlightRecorder::global();
}

/**
 * Insert a zero-padded index before the final extension:
 * "trace.json" -> "trace.003.json", "out" -> "out.003". Shared by the
 * flight recorder and the benches' per-session output numbering.
 */
std::string indexedPath(const std::string &path, unsigned n);

} // namespace npf::obs

#endif // NPF_OBS_FLIGHT_HH
