#include "exp/scenario.h"

#include <algorithm>
#include <ostream>

#include "common/json.h"
#include "common/logging.h"
#include "exp/result_io.h"

namespace smartinf::exp {

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    SI_REQUIRE(!scenario.name.empty(), "scenario needs a name");
    SI_REQUIRE(find(scenario.name) == nullptr,
               "duplicate scenario name: ", scenario.name);
    scenarios_.push_back(std::move(scenario));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &s : scenarios_)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    std::vector<const Scenario *> out;
    out.reserve(scenarios_.size());
    for (const auto &s : scenarios_)
        out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const Scenario *a, const Scenario *b) {
                  return a->name < b->name;
              });
    return out;
}

void
writeScenarioJson(std::ostream &os, const std::string &name,
                  const std::string &title, const ScenarioResult &result)
{
    os << "{\"scenario\":\"" << jsonEscape(name) << "\",\"title\":\""
       << jsonEscape(title) << "\",\"tables\":[";
    for (std::size_t i = 0; i < result.tables.size(); ++i) {
        if (i)
            os << ",";
        writeTableJson(os, result.tables[i]);
    }
    os << "],\"records\":";
    writeRecordsJson(os, result.records);
    os << ",\"notes\":[";
    for (std::size_t i = 0; i < result.notes.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << jsonEscape(result.notes[i]) << "\"";
    }
    os << "]}";
}

} // namespace smartinf::exp
