#include "obs/trace_sink.h"

#include <iomanip>
#include <ostream>

#include "common/json.h"
#include "common/logging.h"

namespace smartinf::obs {

namespace {

constexpr double kUsPerSecond = 1e6;

} // namespace

uint32_t
TraceSink::process(const std::string &name)
{
    auto [it, inserted] =
        pid_by_name_.emplace(name, static_cast<uint32_t>(processes_.size()));
    if (inserted)
        processes_.push_back(TrackNames{name, {}});
    return it->second;
}

uint32_t
TraceSink::thread(uint32_t pid, const std::string &name)
{
    SI_ASSERT(pid < processes_.size(), "trace thread() on unknown pid");
    auto &threads = processes_[pid].threads;
    for (std::size_t i = 0; i < threads.size(); ++i)
        if (threads[i] == name)
            return static_cast<uint32_t>(i);
    threads.push_back(name);
    return static_cast<uint32_t>(threads.size() - 1);
}

void
TraceSink::durationBegin(uint32_t pid, uint32_t tid, const std::string &name,
                         Seconds t, std::string args_json)
{
    TraceEvent e;
    e.ph = 'B';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::durationEnd(uint32_t pid, uint32_t tid, Seconds t)
{
    TraceEvent e;
    e.ph = 'E';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.tid = tid;
    events_.push_back(std::move(e));
}

void
TraceSink::asyncBegin(uint32_t pid, const std::string &cat,
                      const std::string &name, uint64_t id, Seconds t,
                      std::string args_json)
{
    TraceEvent e;
    e.ph = 'b';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.id = id;
    e.has_id = true;
    e.name = name;
    e.cat = cat;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::asyncInstant(uint32_t pid, const std::string &cat,
                        const std::string &name, uint64_t id, Seconds t,
                        std::string args_json)
{
    TraceEvent e;
    e.ph = 'n';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.id = id;
    e.has_id = true;
    e.name = name;
    e.cat = cat;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::asyncEnd(uint32_t pid, const std::string &cat,
                    const std::string &name, uint64_t id, Seconds t,
                    std::string args_json)
{
    TraceEvent e;
    e.ph = 'e';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.id = id;
    e.has_id = true;
    e.name = name;
    e.cat = cat;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::instant(uint32_t pid, uint32_t tid, const std::string &name,
                   Seconds t, std::string args_json)
{
    TraceEvent e;
    e.ph = 'i';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::counter(uint32_t pid, const std::string &name, Seconds t,
                   std::string args_json)
{
    TraceEvent e;
    e.ph = 'C';
    e.ts_us = t * kUsPerSecond;
    e.pid = pid;
    e.name = name;
    e.args_json = std::move(args_json);
    events_.push_back(std::move(e));
}

void
TraceSink::append(const TraceSink &other)
{
    // Remap the other document's pids (and per-pid tids) through this
    // sink's name tables. Run labels are unique by construction, so every
    // remapped pid is fresh and tid indexes can be copied verbatim.
    std::vector<uint32_t> pid_map(other.processes_.size());
    for (std::size_t p = 0; p < other.processes_.size(); ++p) {
        const uint32_t pid = process(other.processes_[p].process);
        pid_map[p] = pid;
        for (const auto &thread_name : other.processes_[p].threads)
            thread(pid, thread_name);
    }
    events_.reserve(events_.size() + other.events_.size());
    for (TraceEvent e : other.events_) {
        e.pid = pid_map[e.pid];
        events_.push_back(std::move(e));
    }
}

void
TraceSink::write(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };
    // Track-name metadata first: Perfetto uses it to label the groups.
    for (std::size_t p = 0; p < processes_.size(); ++p) {
        sep();
        os << R"({"ph": "M", "name": "process_name", "pid": )" << p
           << R"(, "tid": 0, "args": {"name": ")"
           << jsonEscape(processes_[p].process) << "\"}}";
        for (std::size_t t = 0; t < processes_[p].threads.size(); ++t) {
            sep();
            os << R"({"ph": "M", "name": "thread_name", "pid": )" << p
               << R"(, "tid": )" << t << R"(, "args": {"name": ")"
               << jsonEscape(processes_[p].threads[t]) << "\"}}";
        }
    }
    os << std::setprecision(3) << std::fixed;
    for (const TraceEvent &e : events_) {
        sep();
        os << R"({"ph": ")" << e.ph << R"(", "ts": )" << e.ts_us
           << R"(, "pid": )" << e.pid << R"(, "tid": )" << e.tid;
        if (e.dur_us >= 0.0)
            os << R"(, "dur": )" << e.dur_us;
        if (e.has_id)
            os << R"(, "id": )" << e.id;
        if (!e.name.empty())
            os << R"(, "name": ")" << jsonEscape(e.name) << '"';
        os << R"(, "cat": ")" << (e.cat.empty() ? "sim" : e.cat) << '"';
        if (!e.args_json.empty())
            os << R"(, "args": {)" << e.args_json << '}';
        os << '}';
    }
    os << "\n]}\n";
    os.flags(flags);
}

} // namespace smartinf::obs
