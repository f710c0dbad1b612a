/**
 * @file
 * Clocks, medians and the in-memory span store of the benchmark.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "perfbench.hh"
#include "sim/logging.hh"
#include "stats/result_writer.hh"

namespace perfbench {

double
wallNow()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

ScopedSpan::ScopedSpan(SpanLog *log, const char *name,
                       std::int64_t parent, std::int64_t iteration)
    : log_(log)
{
    span_.id = -1;
    if (log_ == nullptr)
        return;
    span_.id = log_->newId();
    span_.parent = parent;
    span_.iteration = iteration;
    span_.name = name;
    span_.start = wallNow();
}

ScopedSpan::~ScopedSpan()
{
    if (log_ == nullptr)
        return;
    span_.end = wallNow();
    log_->add(std::move(span_));
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::int64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    // Children of one parent may run concurrently (sweep workers), so
    // subtract the union of their intervals, not their sum.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end())
            children[it->second].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

void
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        nmapsim::fatal("perfbench: cannot write " + path);
    const std::vector<double> self = selfTimes(spans);
    double origin = spans.empty() ? 0.0 : spans.front().start;
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    using nmapsim::ResultWriter;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"iteration\": " << s.iteration << ", \"name\": \""
            << s.name << "\", \"start_s\": "
            << ResultWriter::formatDouble(s.start - origin)
            << ", \"end_s\": "
            << ResultWriter::formatDouble(s.end - origin)
            << ", \"self_s\": " << ResultWriter::formatDouble(self[i])
            << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
    }
    out << "]}\n";
}

} // namespace perfbench
