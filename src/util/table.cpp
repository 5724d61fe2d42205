#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/error.hpp"

namespace snim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
    SNIM_ASSERT(cells.size() == headers_.size(), "row width %zu != header width %zu",
                cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

void Table::add_row_values(const std::vector<double>& values, int precision) {
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values) cells.push_back(format("%.*g", precision, v));
    add_row(std::move(cells));
}

std::string Table::to_string() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

    auto line = [&](const std::vector<std::string>& cells) {
        std::string out = "|";
        for (size_t c = 0; c < cells.size(); ++c) {
            out += " " + cells[c] + std::string(width[c] - cells[c].size(), ' ') + " |";
        }
        return out + "\n";
    };
    std::string sep = "+";
    for (size_t c = 0; c < headers_.size(); ++c) sep += std::string(width[c] + 2, '-') + "+";
    sep += "\n";

    std::string out = sep + line(headers_) + sep;
    for (const auto& row : rows_) out += line(row);
    out += sep;
    return out;
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

AsciiPlot::AsciiPlot(std::string title, std::string xlabel, std::string ylabel)
    : title_(std::move(title)), xlabel_(std::move(xlabel)), ylabel_(std::move(ylabel)) {}

void AsciiPlot::add(PlotSeries series) {
    SNIM_ASSERT(series.x.size() == series.y.size(), "series '%s' x/y mismatch",
                series.name.c_str());
    series_.push_back(std::move(series));
}

std::string AsciiPlot::to_string() const {
    double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
    double ymin = xmin, ymax = -xmin;
    for (const auto& s : series_) {
        for (size_t i = 0; i < s.x.size(); ++i) {
            double x = log_x_ ? std::log10(s.x[i]) : s.x[i];
            xmin = std::min(xmin, x);
            xmax = std::max(xmax, x);
            ymin = std::min(ymin, s.y[i]);
            ymax = std::max(ymax, s.y[i]);
        }
    }
    if (!(xmin < xmax)) { xmin -= 1; xmax += 1; }
    if (!(ymin < ymax)) { ymin -= 1; ymax += 1; }
    const double ypad = 0.05 * (ymax - ymin);
    ymin -= ypad;
    ymax += ypad;

    std::vector<std::string> grid(static_cast<size_t>(height_),
                                  std::string(static_cast<size_t>(width_), ' '));
    for (const auto& s : series_) {
        for (size_t i = 0; i < s.x.size(); ++i) {
            double x = log_x_ ? std::log10(s.x[i]) : s.x[i];
            int col = static_cast<int>(std::lround((x - xmin) / (xmax - xmin) * (width_ - 1)));
            int row = static_cast<int>(
                std::lround((ymax - s.y[i]) / (ymax - ymin) * (height_ - 1)));
            col = std::clamp(col, 0, width_ - 1);
            row = std::clamp(row, 0, height_ - 1);
            grid[static_cast<size_t>(row)][static_cast<size_t>(col)] = s.marker;
        }
    }

    std::string out = title_ + "\n";
    for (int r = 0; r < height_; ++r) {
        const double yv = ymax - (ymax - ymin) * r / (height_ - 1);
        out += format("%10.3g |", yv) + grid[static_cast<size_t>(r)] + "\n";
    }
    out += std::string(11, ' ') + "+" + std::string(static_cast<size_t>(width_), '-') + "\n";
    const char* xpfx = log_x_ ? "log10 " : "";
    out += format("%12s%s%s  [%.3g .. %.3g]\n", "", xpfx, xlabel_.c_str(),
                  log_x_ ? std::pow(10, xmin) : xmin, log_x_ ? std::pow(10, xmax) : xmax);
    out += format("%12sy: %s", "", ylabel_.c_str());
    for (const auto& s : series_) out += format("   [%c] %s", s.marker, s.name.c_str());
    out += "\n";
    return out;
}

void AsciiPlot::print() const { std::fputs(to_string().c_str(), stdout); }

} // namespace snim
