#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double
nowS()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::int64_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);

    std::map<std::string, SelfTime> out;
    for (const Span &s : spans) {
        double dur = std::max(0.0, s.end - s.start);
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<double, double>> iv;
            for (std::size_t c : it->second) {
                double b = std::max(spans[c].start, s.start);
                double e = std::min(spans[c].end, s.end);
                if (e > b)
                    iv.emplace_back(b, e);
            }
            std::sort(iv.begin(), iv.end());
            double curB = 0.0, curE = -1.0;
            for (const auto &p : iv) {
                if (p.first > curE) {
                    if (curE > curB)
                        covered += curE - curB;
                    curB = p.first;
                    curE = p.second;
                } else {
                    curE = std::max(curE, p.second);
                }
            }
            if (curE > curB)
                covered += curE - curB;
        }
        SelfTime &t = out[s.name];
        ++t.count;
        t.selfS += std::max(0.0, dur - covered);
    }
    return out;
}

std::int64_t
SpanRecorder::add(const std::string &name, double start, double end,
                  std::int64_t parent, std::int64_t request,
                  std::int64_t id)
{
    if (id == 0)
        id = newId();
    Span s{name, start, end, id, parent, request};
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(std::move(s));
    return id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _spans;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %lld, \"parent\": %lld, "
                     "\"request\": %lld}}%s\n",
                     s.name.c_str(), static_cast<long long>(s.request),
                     s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.request),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
