// ASCII table and dot-plot rendering for bench / example output.
//
// Benches print the same rows/series a paper figure shows; Table keeps the
// formatting consistent and AsciiPlot gives a quick visual of series shape
// (e.g. spur power vs log-frequency) directly in the terminal.
#pragma once

#include <string>
#include <vector>

namespace snim {

class Table {
public:
    explicit Table(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);
    /// Convenience: formats doubles with %g-style precision.
    void add_row_values(const std::vector<double>& values, int precision = 5);

    std::string to_string() const;
    void print() const;

    size_t row_count() const { return rows_.size(); }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// One named series of (x, y) points.
struct PlotSeries {
    std::string name;
    std::vector<double> x;
    std::vector<double> y;
    char marker = '*';
};

/// Renders series on a character grid; x may be plotted on a log axis, which
/// is what the paper's Figures 8-10 use.
class AsciiPlot {
public:
    AsciiPlot(std::string title, std::string xlabel, std::string ylabel);

    void set_log_x(bool log_x) { log_x_ = log_x; }
    void add(PlotSeries series);

    std::string to_string() const;
    void print() const;

private:
    std::string title_, xlabel_, ylabel_;
    std::vector<PlotSeries> series_;
    bool log_x_ = false;
    int width_ = 72;
    int height_ = 20;
};

} // namespace snim
