#include "core/config_io.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "util/fs.hh"
#include "util/logging.hh"

namespace densim {

namespace {

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

double
parseDouble(const std::string &key, const std::string &value)
{
    std::size_t used = 0;
    double out = 0.0;
    try {
        out = std::stod(value, &used);
    } catch (const std::exception &) {
        fatal("config: cannot parse '", value, "' for key '", key,
              "'");
    }
    if (used != value.size())
        fatal("config: trailing junk in '", value, "' for key '", key,
              "'");
    return out;
}

int
parseInt(const std::string &key, const std::string &value)
{
    const double d = parseDouble(key, value);
    const int i = static_cast<int>(d);
    if (static_cast<double>(i) != d)
        fatal("config: key '", key, "' needs an integer, got '", value,
              "'");
    return i;
}

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    // Not via parseDouble: a 64-bit seed has more digits than a
    // double has mantissa, and a seed that silently rounds is a
    // reproducibility bug.
    std::size_t used = 0;
    std::uint64_t out = 0;
    try {
        out = std::stoull(value, &used);
    } catch (const std::exception &) {
        fatal("config: cannot parse '", value, "' for key '", key,
              "'");
    }
    if (used != value.size())
        fatal("config: trailing junk in '", value, "' for key '", key,
              "'");
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    fatal("config: key '", key, "' needs a boolean, got '", value,
          "'");
}

WorkloadSet
parseWorkload(const std::string &key, const std::string &value)
{
    for (WorkloadSet set : allWorkloadSets()) {
        if (value == workloadSetName(set))
            return set;
    }
    fatal("config: key '", key, "' needs one of Computation/GP/"
          "Storage, got '",
          value, "'");
}

/** One settable key: apply and serialize. */
struct KeyOps
{
    std::function<void(SimConfig &, const std::string &,
                       const std::string &)>
        apply;
    std::function<std::string(const SimConfig &)> print;
};

const std::map<std::string, KeyOps> &
keyTable()
{
    auto dbl = [](double SimConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.*field = parseDouble(k, v);
            },
            [field](const SimConfig &c) {
                std::ostringstream os;
                os << c.*field;
                return os.str();
            },
        };
    };
    auto intf = [](int SimConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) { c.*field = parseInt(k, v); },
            [field](const SimConfig &c) {
                return std::to_string(c.*field);
            },
        };
    };
    auto boolf = [](bool SimConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.*field = parseBool(k, v);
            },
            [field](const SimConfig &c) {
                return c.*field ? "true" : "false";
            },
        };
    };
    auto topo_int = [](int TopologySpec::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.topo.*field = parseInt(k, v);
            },
            [field](const SimConfig &c) {
                return std::to_string(c.topo.*field);
            },
        };
    };
    auto topo_dbl = [](double TopologySpec::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.topo.*field = parseDouble(k, v);
            },
            [field](const SimConfig &c) {
                std::ostringstream os;
                os << c.topo.*field;
                return os.str();
            },
        };
    };
    // Output sinks fail fast at key-apply time: the files are only
    // written at the end of a run, and a typo'd directory should not
    // surface minutes into a sweep.
    auto pathf = [](std::string SimConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                if (!v.empty() && !pathWritable(v)) {
                    fatal("config: key '", k, "' = '", v,
                          "': directory '", parentDir(v),
                          "' does not exist or is not writable");
                }
                c.*field = v;
            },
            [field](const SimConfig &c) { return c.*field; },
        };
    };
    auto fault_dbl = [](double FaultConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.fault.*field = parseDouble(k, v);
            },
            [field](const SimConfig &c) {
                std::ostringstream os;
                os << c.fault.*field;
                return os.str();
            },
        };
    };
    auto fault_int = [](int FaultConfig::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.fault.*field = parseInt(k, v);
            },
            [field](const SimConfig &c) {
                return std::to_string(c.fault.*field);
            },
        };
    };
    auto coup_dbl = [](double CouplingParams::*field) {
        return KeyOps{
            [field](SimConfig &c, const std::string &k,
                    const std::string &v) {
                c.coupling.*field = parseDouble(k, v);
            },
            [field](const SimConfig &c) {
                std::ostringstream os;
                os << c.coupling.*field;
                return os.str();
            },
        };
    };

    static const std::map<std::string, KeyOps> table{
        {"workload",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.workload = parseWorkload(k, v);
          },
          [](const SimConfig &c) {
              return std::string(workloadSetName(c.workload));
          }}},
        {"load", dbl(&SimConfig::load)},
        {"simTimeS", dbl(&SimConfig::simTimeS)},
        {"warmupS", dbl(&SimConfig::warmupS)},
        {"drainFactor", dbl(&SimConfig::drainFactor)},
        {"pmEpochS", dbl(&SimConfig::pmEpochS)},
        {"chipTauS", dbl(&SimConfig::chipTauS)},
        {"socketTauS", dbl(&SimConfig::socketTauS)},
        {"histTauS", dbl(&SimConfig::histTauS)},
        {"tLimitC", dbl(&SimConfig::tLimitC)},
        {"rIntCW", dbl(&SimConfig::rIntCW)},
        {"gatedFracTdp", dbl(&SimConfig::gatedFracTdp)},
        {"boostRefillRate", dbl(&SimConfig::boostRefillRate)},
        {"boostBurstS", dbl(&SimConfig::boostBurstS)},
        {"migrationEnabled", boolf(&SimConfig::migrationEnabled)},
        {"migrationIntervalS", dbl(&SimConfig::migrationIntervalS)},
        {"migrationCostS", dbl(&SimConfig::migrationCostS)},
        {"migrationMinRemainingS",
         dbl(&SimConfig::migrationMinRemainingS)},
        {"migrationMaxPerPass", intf(&SimConfig::migrationMaxPerPass)},
        {"fanPowerW", dbl(&SimConfig::fanPowerW)},
        {"sensorNoiseC", dbl(&SimConfig::sensorNoiseC)},
        {"sensorQuantC", dbl(&SimConfig::sensorQuantC)},
        {"timelineSampleS", dbl(&SimConfig::timelineSampleS)},
        {"obs.tracePath", pathf(&SimConfig::obsTracePath)},
        {"obs.timelinePath", pathf(&SimConfig::obsTimelinePath)},
        {"incrementalThermal", boolf(&SimConfig::incrementalThermal)},
        {"schedPredictionCache",
         boolf(&SimConfig::schedPredictionCache)},
        {"busySumSkip", boolf(&SimConfig::busySumSkip)},
        {"warmStart", boolf(&SimConfig::warmStart)},
        {"seed",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.seed = parseU64(k, v);
          },
          [](const SimConfig &c) { return std::to_string(c.seed); }}},
        {"topo.rows", topo_int(&TopologySpec::rows)},
        {"topo.cartridgesPerRow",
         topo_int(&TopologySpec::cartridgesPerRow)},
        {"topo.zonesPerCartridge",
         topo_int(&TopologySpec::zonesPerCartridge)},
        {"topo.socketsPerZone", topo_int(&TopologySpec::socketsPerZone)},
        {"topo.intraZoneSpacingInch",
         topo_dbl(&TopologySpec::intraZoneSpacingInch)},
        {"topo.interCartridgeGapInch",
         topo_dbl(&TopologySpec::interCartridgeGapInch)},
        {"topo.perSocketCfm", topo_dbl(&TopologySpec::perSocketCfm)},
        {"topo.inletC", topo_dbl(&TopologySpec::inletC)},
        {"fault.seed",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.fault.seed = parseU64(k, v);
          },
          [](const SimConfig &c) {
              return std::to_string(c.fault.seed);
          }}},
        {"fault.fanFailS", fault_dbl(&FaultConfig::fanFailS)},
        {"fault.fanRecoverS", fault_dbl(&FaultConfig::fanRecoverS)},
        {"fault.fanSpeedFrac", fault_dbl(&FaultConfig::fanSpeedFrac)},
        {"fault.fanCount", fault_int(&FaultConfig::fanCount)},
        {"fault.sensorStuckCount",
         fault_int(&FaultConfig::sensorStuckCount)},
        {"fault.sensorStuckAtS",
         fault_dbl(&FaultConfig::sensorStuckAtS)},
        {"fault.sensorNoisyCount",
         fault_int(&FaultConfig::sensorNoisyCount)},
        {"fault.sensorNoiseSigmaC",
         fault_dbl(&FaultConfig::sensorNoiseSigmaC)},
        {"fault.sensorNoisyAtS",
         fault_dbl(&FaultConfig::sensorNoisyAtS)},
        {"fault.sensorDropoutCount",
         fault_int(&FaultConfig::sensorDropoutCount)},
        {"fault.sensorDropoutAtS",
         fault_dbl(&FaultConfig::sensorDropoutAtS)},
        {"fault.sensorDropoutDurS",
         fault_dbl(&FaultConfig::sensorDropoutDurS)},
        {"fault.dropoutPolicy",
         {[](SimConfig &c, const std::string &, const std::string &v) {
              c.fault.dropoutPolicy = parseDropoutPolicy(v);
          },
          [](const SimConfig &c) {
              return std::string(
                  dropoutPolicyName(c.fault.dropoutPolicy));
          }}},
        {"fault.fallbackAmbientC",
         fault_dbl(&FaultConfig::fallbackAmbientC)},
        {"fault.socketFailCount",
         fault_int(&FaultConfig::socketFailCount)},
        {"fault.socketFailS", fault_dbl(&FaultConfig::socketFailS)},
        {"fault.socketRecoverS",
         fault_dbl(&FaultConfig::socketRecoverS)},
        {"fault.emergencyMarginC",
         fault_dbl(&FaultConfig::emergencyMarginC)},
        {"fault.emergencySustainS",
         fault_dbl(&FaultConfig::emergencySustainS)},
        {"fault.quarantineSustainS",
         fault_dbl(&FaultConfig::quarantineSustainS)},
        {"fault.quarantineExitC",
         fault_dbl(&FaultConfig::quarantineExitC)},
        {"fault.abortRunS", fault_dbl(&FaultConfig::abortRunS)},
        {"fault.logPath",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              if (!v.empty() && !pathWritable(v)) {
                  fatal("config: key '", k, "' = '", v,
                        "': directory '", parentDir(v),
                        "' does not exist or is not writable");
              }
              c.fault.logPath = v;
          },
          [](const SimConfig &c) { return c.fault.logPath; }}},
        {"fleet.chassis",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              const int n = parseInt(k, v);
              if (n < 0)
                  fatal("config: key '", k, "' must be >= 0, got ",
                        n);
              c.fleet.chassis = static_cast<std::size_t>(n);
          },
          [](const SimConfig &c) {
              return std::to_string(c.fleet.chassis);
          }}},
        {"fleet.epochS",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.fleet.epochS = parseDouble(k, v);
          },
          [](const SimConfig &c) {
              std::ostringstream os;
              os << c.fleet.epochS;
              return os.str();
          }}},
        {"fleet.dispatcher",
         {[](SimConfig &c, const std::string &, const std::string &v) {
              c.fleet.dispatcher = v;
          },
          [](const SimConfig &c) { return c.fleet.dispatcher; }}},
        {"fleet.powerBudgetW",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.fleet.powerBudgetW = parseDouble(k, v);
          },
          [](const SimConfig &c) {
              std::ostringstream os;
              os << c.fleet.powerBudgetW;
              return os.str();
          }}},
        {"fleet.seed",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.fleet.seed = parseU64(k, v);
          },
          [](const SimConfig &c) {
              return std::to_string(c.fleet.seed);
          }}},
        {"ckpt.path", pathf(&SimConfig::ckptPath)},
        {"ckpt.everyS", dbl(&SimConfig::ckptEveryS)},
        {"coupling.mixFactor", coup_dbl(&CouplingParams::mixFactor)},
        {"coupling.decayLengthInch",
         coup_dbl(&CouplingParams::decayLengthInch)},
        {"coupling.wakeFactor", coup_dbl(&CouplingParams::wakeFactor)},
        {"coupling.kappaLocal", coup_dbl(&CouplingParams::kappaLocal)},
        {"coupling.verticalLeak",
         coup_dbl(&CouplingParams::verticalLeak)},
    };
    return table;
}

/** Classic dynamic-programming Levenshtein distance. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/**
 * " (did you mean 'X'?)" for the nearest known key within an edit
 * distance of 3, or "" when nothing plausible is close enough.
 */
std::string
suggestKey(const std::string &unknown)
{
    std::size_t best_dist = 4; // Suggest only within distance 3.
    std::string best;
    for (const auto &[key, ops] : keyTable()) {
        const std::size_t d = editDistance(unknown, key);
        if (d < best_dist) {
            best_dist = d;
            best = key;
        }
    }
    if (best.empty() || best_dist >= unknown.size())
        return "";
    return " (did you mean '" + best + "'?)";
}

} // namespace

void
applyConfigKey(SimConfig &config, const std::string &key,
               const std::string &value)
{
    const std::string k = trim(key);
    const auto it = keyTable().find(k);
    if (it == keyTable().end())
        fatal("config: unknown key '", k, "'", suggestKey(k));
    it->second.apply(config, k, trim(value));
}

void
loadConfig(SimConfig &config, std::istream &in)
{
    std::string line;
    int lineno = 0;
    std::map<std::string, int> first_seen;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string body = trim(line);
        if (body.empty())
            continue;
        const auto eq = body.find('=');
        if (eq == std::string::npos)
            fatal("config: line ", lineno, " is not 'key = value': '",
                  body, "'");
        const std::string k = trim(body.substr(0, eq));
        const auto it = keyTable().find(k);
        if (it == keyTable().end()) {
            fatal("config: line ", lineno, ": unknown key '", k, "'",
                  suggestKey(k));
        }
        const auto [seen, fresh] = first_seen.emplace(k, lineno);
        if (!fresh) {
            fatal("config: line ", lineno, ": duplicate key '", k,
                  "' (first set at line ", seen->second, ")");
        }
        it->second.apply(config, k, trim(body.substr(eq + 1)));
    }
}

void
loadConfigFile(SimConfig &config, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open '", path, "'");
    loadConfig(config, in);
}

std::string
saveConfig(const SimConfig &config)
{
    std::ostringstream os;
    os << "# densim simulation configuration\n";
    for (const auto &[key, ops] : keyTable())
        os << key << " = " << ops.print(config) << "\n";
    return os.str();
}

} // namespace densim
