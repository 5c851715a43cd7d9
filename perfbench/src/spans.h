/**
 * @file
 * In-memory span recorder for the traced run: name, start, end, parent
 * span and a model/request id, kept in memory and written at exit.
 * Self time of a span is its duration minus the time its children
 * cover. Disabled recorders cost one branch per scope.
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::string id;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1;  ///< index of the parent span, -1 for a root
    };

    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder* rec, const std::string& name,
              const std::string& id);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder* rec_;
        int index_ = -1;
    };

    void set_enabled(bool on) { enabled_ = on; }

    Scope scope(const std::string& name, const std::string& id = {})
    {
        return Scope(enabled_ ? this : nullptr, name, id);
    }

    /** Per name: summed self time in seconds. */
    std::map<std::string, double> self_seconds() const;

    /** Spans of one name under root spans named in `roots`. */
    struct Tally
    {
        int64_t calls = 0;
        double total_s = 0.0;
        double mean_s() const { return calls ? total_s / calls : 0.0; }
    };
    Tally tally(const std::string& name,
                const std::vector<std::string>& roots) const;

    /** Spans as a JSON array (times relative to the first span). */
    void write_json(std::ostream& os) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
