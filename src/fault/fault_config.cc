#include "fault/fault_config.hh"

#include "util/logging.hh"

namespace densim {

bool
FaultConfig::enabled() const
{
    return fanFailS >= 0.0 || sensorStuckCount > 0 ||
           sensorNoisyCount > 0 || sensorDropoutCount > 0 ||
           socketFailCount > 0 || abortRunS >= 0.0;
}

std::uint64_t
FaultConfig::effectiveSeed(std::uint64_t run_seed) const
{
    return seed != 0 ? seed : (run_seed ^ 0xfa017d11e5c0ffeeULL);
}

void
FaultConfig::validate(std::optional<Celsius> t_limit) const
{
    if (fanSpeedFrac < 0.0 || fanSpeedFrac > 1.0)
        fatal("FaultConfig: fault.fanSpeedFrac ", fanSpeedFrac,
              " outside [0, 1]");
    if (fanCount < 1)
        fatal("FaultConfig: fault.fanCount must be >= 1");
    if (fanFailS >= 0.0 && fanRecoverS >= 0.0 &&
        fanRecoverS <= fanFailS) {
        fatal("FaultConfig: fault.fanRecoverS ", fanRecoverS,
              " must come after fault.fanFailS ", fanFailS);
    }
    if (sensorStuckCount < 0 || sensorNoisyCount < 0 ||
        sensorDropoutCount < 0 || socketFailCount < 0) {
        fatal("FaultConfig: fault counts must be non-negative");
    }
    if (sensorStuckAtS < 0.0 || sensorNoisyAtS < 0.0 ||
        sensorDropoutAtS < 0.0 || socketFailS < 0.0) {
        fatal("FaultConfig: fault onset times must be non-negative");
    }
    if (sensorNoiseSigmaC < 0.0)
        fatal("FaultConfig: fault.sensorNoiseSigmaC must be "
              "non-negative");
    if (fallbackAmbientC <= -273.15)
        fatal("FaultConfig: fault.fallbackAmbientC ", fallbackAmbientC,
              " C is below absolute zero");
    if (socketFailCount > 0 && socketRecoverS >= 0.0 &&
        socketRecoverS <= socketFailS) {
        fatal("FaultConfig: fault.socketRecoverS ", socketRecoverS,
              " must come after fault.socketFailS ", socketFailS);
    }
    if (emergencyMarginC < 0.0)
        fatal("FaultConfig: fault.emergencyMarginC must be "
              "non-negative");
    if (emergencySustainS <= 0.0 || quarantineSustainS <= 0.0)
        fatal("FaultConfig: escalation dwell times must be positive");
    if (t_limit) {
        const double trip_c = t_limit->value() + emergencyMarginC;
        if (quarantineExitC >= trip_c)
            fatal("FaultConfig: fault.quarantineExitC ", quarantineExitC,
                  " must lie below the emergency trip point ", trip_c);
    }
}

DropoutPolicy
parseDropoutPolicy(const std::string &name)
{
    if (name == "lastGood")
        return DropoutPolicy::LastGood;
    if (name == "conservative")
        return DropoutPolicy::Conservative;
    fatal("FaultConfig: fault.dropoutPolicy must be 'lastGood' or "
          "'conservative', got '",
          name, "'");
}

const char *
dropoutPolicyName(DropoutPolicy policy)
{
    switch (policy) {
    case DropoutPolicy::LastGood:
        return "lastGood";
    case DropoutPolicy::Conservative:
        return "conservative";
    }
    return "lastGood";
}

} // namespace densim
