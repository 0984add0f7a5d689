// Minimal aligned-table printer for the bench binaries: the benches print
// the same rows the paper's Section 6 reports, plus a measured column.
#pragma once

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace cim::obs {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Cells>
  void add_row(const Cells&... cells) {
    std::vector<std::string> row;
    (row.push_back(cell_to_string(cells)), ...);
    rows_.push_back(std::move(row));
  }

  void print(std::ostream& os = std::cout) const;

 private:
  template <typename T>
  static std::string cell_to_string(const T& value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cim::obs
