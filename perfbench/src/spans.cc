#include "spans.h"

#include <ostream>

#include "bench.h"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, const std::string& name,
                           const std::string& id)
    : rec_(rec)
{
    if (rec_ == nullptr)
        return;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
    index_ = static_cast<int>(rec_->spans_.size());
    rec_->spans_.push_back(std::move(s));
    rec_->open_.push_back(index_);
    // Stamp last, so the bookkeeping above is not inside the span.
    rec_->spans_[static_cast<size_t>(index_)].start_s = now_s();
}

SpanRecorder::Scope::~Scope()
{
    if (rec_ == nullptr)
        return;
    rec_->spans_[static_cast<size_t>(index_)].end_s = now_s();
    rec_->open_.pop_back();
}

std::map<std::string, double>
SpanRecorder::self_seconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            spans_[i].end_s - spans_[i].start_s - child[i];
    return out;
}

SpanRecorder::Tally
SpanRecorder::tally(const std::string& name,
                   const std::vector<std::string>& roots) const
{
    Tally t;
    for (const Span& s : spans_) {
        if (s.name != name)
            continue;
        const Span* root = &s;
        while (root->parent >= 0)
            root = &spans_[static_cast<size_t>(root->parent)];
        for (const std::string& r : roots) {
            if (root->name == r) {
                ++t.calls;
                t.total_s += s.end_s - s.start_s;
                break;
            }
        }
    }
    return t;
}

void
SpanRecorder::write_json(std::ostream& os) const
{
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n " : "") << "{\"name\":\"" << s.name
           << "\",\"id\":\"" << s.id << "\",\"start_us\":"
           << (s.start_s - t0) * 1e6 << ",\"end_us\":"
           << (s.end_s - t0) * 1e6 << ",\"parent\":" << s.parent << "}";
    }
    os << "]";
}

}  // namespace perfbench
