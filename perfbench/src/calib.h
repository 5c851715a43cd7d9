/**
 * @file
 * Host-speed calibration. The cores of a shared machine change speed
 * by up to ~1.5x between runs and within one (frequency scaling and
 * contention from neighbours), which moves host wall-clock as much as
 * a real change to the program would. A frozen reference kernel, timed
 * next to the measured work, tracks that speed, and every host time
 * the benchmark reports is given at reference speed:
 *
 *   reported = measured x kReferenceSeconds / reference-kernel time.
 *
 * A change to the program moves the measured time but not the kernel,
 * so it still shows; a change in machine speed moves both and cancels.
 */
#pragma once

#include <chrono>
#include <vector>

namespace perfbench {

/** Host wall-clock now, in seconds since an arbitrary epoch. */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reference-kernel time that defines reference speed. */
constexpr double kReferenceSeconds = 1.0e-3;

/** Host seconds of one run of the reference kernel. */
double calibration_seconds();

/** Readings of the machine's speed over one run. */
class SpeedTrack
{
  public:
    /**
     * Take a reading now: kReferenceSeconds over the median of five
     * kernel runs. Multiply a raw host time by it.
     */
    double read();

    /** Median of every reading so far (1 before the first). */
    double median_factor() const;

    /**
     * Host seconds of fn() at reference speed, scaled by the mean of
     * the readings taken just before and just after it.
     */
    template <typename Fn>
    double
    seconds(Fn&& fn);

  private:
    std::vector<double> readings_;
};

/**
 * Scale a series of short samples, each taken next to one kernel run
 * (`kernel_s[i]` beside `raw[i]`), by the median kernel time over a
 * window of neighbouring samples; the window filters kernel jitter.
 */
std::vector<double> scale_series(const std::vector<double>& raw,
                                 const std::vector<double>& kernel_s);

template <typename Fn>
double
SpeedTrack::seconds(Fn&& fn)
{
    const double before = read();
    const double t0 = now_s();
    fn();
    const double raw = now_s() - t0;
    return raw * 0.5 * (before + read());
}

}  // namespace perfbench
