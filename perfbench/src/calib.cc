#include "calib.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

/**
 * The kind of work the library does on the host: ordered-map inserts
 * and lookups under short string keys, vector sorts and pointer-chasing
 * over small structs. Frozen: it must never change with the program.
 */
uint64_t
reference_kernel()
{
    std::map<std::string, uint64_t> m;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::vector<uint64_t> v;
    v.reserve(2048);
    for (int i = 0; i < 2048; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push_back(x);
        m[std::to_string(x % 1024)] += x;
    }
    std::sort(v.begin(), v.end());
    uint64_t sum = 0;
    for (int i = 0; i < 1024; ++i) {
        const auto it =
            m.find(std::to_string(v[static_cast<size_t>(i)] % 1024));
        sum += it == m.end() ? 1 : it->second;
    }
    return sum + v.front();
}

}  // namespace

double
calibration_seconds()
{
    static volatile uint64_t sink = 0;
    const double t0 = now_s();
    sink = sink + reference_kernel();
    return now_s() - t0;
}

double
SpeedTrack::read()
{
    std::vector<double> t;
    for (int i = 0; i < 5; ++i)
        t.push_back(calibration_seconds());
    readings_.push_back(kReferenceSeconds / median(std::move(t)));
    return readings_.back();
}

double
SpeedTrack::median_factor() const
{
    return readings_.empty() ? 1.0 : median(readings_);
}

std::vector<double>
scale_series(const std::vector<double>& raw,
             const std::vector<double>& kernel_s)
{
    constexpr size_t kHalfWindow = 4;
    std::vector<double> out;
    for (size_t i = 0; i < raw.size(); ++i) {
        const size_t lo = i > kHalfWindow ? i - kHalfWindow : 0;
        const size_t hi = std::min(kernel_s.size(), i + kHalfWindow + 1);
        out.push_back(raw[i] * kReferenceSeconds /
                      median(std::vector<double>(
                          kernel_s.begin() + static_cast<long>(lo),
                          kernel_s.begin() + static_cast<long>(hi))));
    }
    return out;
}

}  // namespace perfbench
