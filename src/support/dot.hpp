#pragma once

#include <ostream>
#include <string>

/// Tiny GraphViz DOT writer, shared by the DDG / PatternGraph / topology
/// dumpers. Keeps quoting rules in one place.
namespace hca {

class DotWriter {
 public:
  /// Begins a digraph with the given name; writes the header immediately.
  DotWriter(std::ostream& os, const std::string& name);
  ~DotWriter();

  DotWriter(const DotWriter&) = delete;
  DotWriter& operator=(const DotWriter&) = delete;

  void node(const std::string& id, const std::string& label,
            const std::string& extraAttrs = "");
  void edge(const std::string& from, const std::string& to,
            const std::string& label = "", const std::string& extraAttrs = "");

  static std::string quote(const std::string& s);

 private:
  std::ostream& os_;
};

}  // namespace hca
