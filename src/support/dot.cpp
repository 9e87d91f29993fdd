#include "support/dot.hpp"

namespace hca {

DotWriter::DotWriter(std::ostream& os, const std::string& name) : os_(os) {
  os_ << "digraph " << quote(name) << " {\n";
  os_ << "  node [shape=box, fontname=\"Helvetica\"];\n";
}

DotWriter::~DotWriter() { os_ << "}\n"; }

void DotWriter::node(const std::string& id, const std::string& label,
                     const std::string& extraAttrs) {
  os_ << "  " << quote(id) << " [label=" << quote(label);
  if (!extraAttrs.empty()) os_ << ", " << extraAttrs;
  os_ << "];\n";
}

void DotWriter::edge(const std::string& from, const std::string& to,
                     const std::string& label,
                     const std::string& extraAttrs) {
  os_ << "  " << quote(from) << " -> " << quote(to);
  if (!label.empty() || !extraAttrs.empty()) {
    os_ << " [";
    bool need_comma = false;
    if (!label.empty()) {
      os_ << "label=" << quote(label);
      need_comma = true;
    }
    if (!extraAttrs.empty()) {
      if (need_comma) os_ << ", ";
      os_ << extraAttrs;
    }
    os_ << "]";
  }
  os_ << ";\n";
}

std::string DotWriter::quote(const std::string& s) {
  // Only double quotes need escaping; backslashes stay intact so DOT label
  // escapes like \n and \l keep working.
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace hca
