#include "nemsim/spice/parambank.h"

#include "nemsim/util/error.h"

namespace nemsim::spice {

ParamSlot ParamBank::bind(const std::string& column, const std::string& owner,
                          double value) {
  touch();
  std::size_t col = find_column(column);
  if (col == npos) {
    col = columns_.size();
    columns_.push_back(Column{column, {}, {}});
  }
  Column& c = columns_[col];
  c.values.push_back(value);
  c.owners.push_back(owner);
  return ParamSlot{static_cast<std::uint32_t>(col),
                   static_cast<std::uint32_t>(c.values.size() - 1)};
}

std::size_t ParamBank::num_params() const {
  std::size_t n = 0;
  for (const Column& c : columns_) n += c.values.size();
  return n;
}

std::size_t ParamBank::find_column(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return npos;
}

ParamBank::Snapshot ParamBank::snapshot() const {
  Snapshot snap;
  snap.reserve(columns_.size());
  for (const Column& c : columns_) snap.push_back(c.values);
  return snap;
}

void ParamBank::restore(const Snapshot& snap) {
  require(snap.size() == columns_.size(),
          "ParamBank::restore: snapshot from a different registration state");
  touch();
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    require(snap[i].size() == columns_[i].values.size(),
            "ParamBank::restore: column size changed since snapshot");
    Column& col = columns_[i];
    for (std::size_t r = 0; r < col.values.size(); ++r) {
      if (col.values[r] != snap[i][r]) {
        col.values[r] = snap[i][r];
        col.dirty = true;
      }
    }
  }
}

}  // namespace nemsim::spice
