#include "refkernel.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "host.hpp"

namespace e2ebench {

namespace {

std::uint64_t lcg(std::uint64_t x) {
    return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

void append_number(std::string& out, double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

// ---- Parse: EDP-like event lines, split, converted and aggregated by name.

constexpr int kParseLines = 160000;
constexpr int kParseRounds = 3;

const std::string& parse_text() {
    static const std::string text = [] {
        std::string s;
        std::uint64_t x = 0x2545F4914F6CDD1DULL;
        for (int i = 0; i < kParseLines; ++i) {
            x = lcg(x);
            s += "E\tkernel_";
            s += std::to_string((x >> 33) % 113);
            s += "\tcompute\t";
            append_number(s, static_cast<double>(x >> 20) * 1e-9);
            s += '\t';
            append_number(s, static_cast<double>((x >> 40) & 0xffff) * 1e-7);
            s += '\t';
            s += std::to_string((x >> 8) % 64 + 1);
            s += '\t';
            append_number(s, static_cast<double>((x >> 12) & 0xfffff) * 4.0);
            s += '\n';
        }
        return s;
    }();
    return text;
}

struct Acc {
    double duration = 0.0;
    double bytes = 0.0;
    double latest = 0.0;
    long long visits = 0;
};

double parse_kernel() {
    const std::string_view text = parse_text();
    double checksum = 0.0;
    for (int round = 0; round < kParseRounds; ++round) {
        std::unordered_map<std::string_view, Acc> by_name;
        std::size_t pos = 0;
        while (pos < text.size()) {
            const std::size_t eol = text.find('\n', pos);
            const std::string_view line = text.substr(pos, eol - pos);
            pos = eol + 1;
            std::array<std::string_view, 7> f;
            std::size_t start = 0;
            for (std::size_t k = 0; k < f.size(); ++k) {
                const std::size_t tab = line.find('\t', start);
                f[k] = line.substr(start, tab - start);
                start = tab == std::string_view::npos ? line.size() : tab + 1;
            }
            double t = 0.0;
            double d = 0.0;
            long long v = 0;
            double b = 0.0;
            std::from_chars(f[3].data(), f[3].data() + f[3].size(), t);
            std::from_chars(f[4].data(), f[4].data() + f[4].size(), d);
            std::from_chars(f[5].data(), f[5].data() + f[5].size(), v);
            std::from_chars(f[6].data(), f[6].data() + f[6].size(), b);
            Acc& a = by_name[f[1]];
            a.duration += d;
            a.bytes += b;
            a.visits += v;
            a.latest = std::max(a.latest, t);
        }
        for (const auto& [name, a] : by_name) {
            checksum += a.duration + a.bytes * 1e-9 +
                        static_cast<double>(a.visits) + a.latest +
                        static_cast<double>(name.size());
        }
    }
    return checksum;
}

// ---- Fit: every two-term PMNF-like hypothesis c0 + c1 f(x) + c2 g(x)
// over five points, solved by normal equations, scored by residual sum.

constexpr std::array<double, 19> kPolyExponents = {
    0.0,  0.25, 1.0 / 3, 0.5,  2.0 / 3, 0.75, 1.0,  1.25, 4.0 / 3, 1.5,
    5.0 / 3, 1.75, 2.0, 2.25, 7.0 / 3, 2.5, 8.0 / 3, 2.75, 3.0};
constexpr int kLogExponents = 3;
constexpr int kTerms = static_cast<int>(kPolyExponents.size()) * kLogExponents;
constexpr int kPoints = 5;
constexpr int kFitRounds = 600;

/// Solves the 3x3 system a * c = b in place (partial pivoting); false when
/// singular.
bool solve3(std::array<std::array<double, 3>, 3>& a, std::array<double, 3>& b,
            std::array<double, 3>& c) {
    for (int col = 0; col < 3; ++col) {
        int pivot = col;
        for (int r = col + 1; r < 3; ++r) {
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) {
                pivot = r;
            }
        }
        if (std::fabs(a[pivot][col]) < 1e-300) {
            return false;
        }
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (int r = col + 1; r < 3; ++r) {
            const double m = a[r][col] / a[col][col];
            for (int k = col; k < 3; ++k) {
                a[r][k] -= m * a[col][k];
            }
            b[r] -= m * b[col];
        }
    }
    for (int r = 2; r >= 0; --r) {
        double s = b[r];
        for (int k = r + 1; k < 3; ++k) {
            s -= a[r][k] * c[k];
        }
        c[r] = s / a[r][r];
    }
    return true;
}

double fit_kernel() {
    constexpr std::array<double, kPoints> xs = {2, 4, 6, 8, 10};
    double checksum = 0.0;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int round = 0; round < kFitRounds; ++round) {
        std::array<double, kPoints> ys;
        for (int p = 0; p < kPoints; ++p) {
            x = lcg(x);
            ys[p] = 1.0 + 0.3 * xs[p] +
                    static_cast<double>(x >> 40) * 1e-8 * std::sqrt(xs[p]);
        }
        // Basis values, recomputed every round the way a fit recomputes them.
        std::array<std::array<double, kPoints>, kTerms> basis;
        for (int t = 0; t < kTerms; ++t) {
            const double i = kPolyExponents[t / kLogExponents];
            const int j = t % kLogExponents;
            for (int p = 0; p < kPoints; ++p) {
                basis[t][p] = std::pow(xs[p], i) * std::pow(std::log2(xs[p]), j);
            }
        }
        double best = INFINITY;
        for (int f = 0; f < kTerms; ++f) {
            for (int g = f + 1; g < kTerms; ++g) {
                std::array<std::array<double, 3>, 3> a{};
                std::array<double, 3> b{};
                for (int p = 0; p < kPoints; ++p) {
                    const std::array<double, 3> row = {1.0, basis[f][p],
                                                       basis[g][p]};
                    for (int r = 0; r < 3; ++r) {
                        for (int k = 0; k < 3; ++k) {
                            a[r][k] += row[r] * row[k];
                        }
                        b[r] += row[r] * ys[p];
                    }
                }
                std::array<double, 3> c{};
                if (!solve3(a, b, c)) {
                    continue;
                }
                double rss = 0.0;
                for (int p = 0; p < kPoints; ++p) {
                    const double e = ys[p] - (c[0] + c[1] * basis[f][p] +
                                              c[2] * basis[g][p]);
                    rss += e * e;
                }
                best = std::min(best, rss);
            }
        }
        checksum += best;
    }
    return checksum;
}

}  // namespace

double ref_kernel_cpu_s(RefKind kind) {
    parse_text();  // built once, outside the timed region
    const double t0 = cpu_seconds();
    volatile double sink =
        kind == RefKind::Parse ? parse_kernel() : fit_kernel();
    (void)sink;
    return cpu_seconds() - t0;
}

double normalised_s(double pass_cpu_s, double ref_before_s,
                    double ref_after_s) {
    return pass_cpu_s / (0.5 * (ref_before_s + ref_after_s)) *
           kNominalRefSeconds;
}

std::vector<double> normalised_passes(const std::vector<double>& passes,
                                      const std::vector<double>& refs) {
    if (refs.size() != passes.size() + 1) {
        throw extradeep::Error("e2ebench: every pass needs a reference run "
                               "before and after it");
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        out.push_back(normalised_s(passes[i], refs[i], refs[i + 1]));
    }
    return out;
}

}  // namespace e2ebench
