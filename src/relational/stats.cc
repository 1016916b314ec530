#include "relational/stats.h"

#include <algorithm>
#include <string>

namespace strdb {

namespace {

void AddString(ColumnStats* col, const std::string& s) {
  const int64_t len = static_cast<int64_t>(s.size());
  col->total_chars += len;
  col->max_len = std::max(col->max_len, len);
  const int bucket =
      static_cast<int>(std::min<int64_t>(len, ColumnStats::kLenBuckets - 1));
  ++col->len_hist[static_cast<size_t>(bucket)];
  for (unsigned char c : s) ++col->char_freq[c];
  col->prefixes.insert(
      s.substr(0, static_cast<size_t>(ColumnStats::kPrefixBytes)));
  if (static_cast<int>(col->prefixes.size()) > ColumnStats::kMaxPrefixes) {
    // Keep the smallest kMaxPrefixes members: the surviving set is a
    // pure function of the distinct prefixes seen, not of their order.
    col->prefixes.erase(std::prev(col->prefixes.end()));
    col->prefixes_saturated = true;
  }
}

// Cursor over the text codec: whitespace-separated integer tokens plus
// `<len>:<bytes>` length-prefixed strings (binary safe).
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  Result<int64_t> Int() {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("stats: expected int");
    return static_cast<int64_t>(
        std::stoll(text_.substr(start, pos_ - start)));
  }

  Result<std::string> Str() {
    STRDB_ASSIGN_OR_RETURN(int64_t len, Int());
    if (len < 0 || pos_ >= text_.size() || text_[pos_] != ':' ||
        pos_ + 1 + static_cast<size_t>(len) > text_.size()) {
      return Status::InvalidArgument("stats: bad string prefix");
    }
    std::string out = text_.substr(pos_ + 1, static_cast<size_t>(len));
    pos_ += 1 + static_cast<size_t>(len);
    return out;
  }

  Result<std::string> Word() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\n') {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("stats: expected word");
    return text_.substr(start, pos_ - start);
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

double ColumnStats::ExpectedLength(int64_t rows) const {
  if (rows <= 0) return 0.0;
  return static_cast<double>(total_chars) / static_cast<double>(rows);
}

bool ColumnStats::operator==(const ColumnStats& other) const {
  return total_chars == other.total_chars && max_len == other.max_len &&
         len_hist == other.len_hist && char_freq == other.char_freq &&
         prefixes == other.prefixes &&
         prefixes_saturated == other.prefixes_saturated;
}

bool RelationStats::operator==(const RelationStats& other) const {
  return arity == other.arity && rows == other.rows &&
         columns == other.columns;
}

RelationStats ComputeRelationStats(const StringRelation& relation) {
  std::vector<Tuple> tuples(relation.tuples().begin(),
                            relation.tuples().end());
  return ComputeRelationStats(relation.arity(), tuples);
}

RelationStats ComputeRelationStats(int arity,
                                   const std::vector<Tuple>& tuples) {
  RelationStats stats;
  stats.arity = arity;
  stats.columns.resize(static_cast<size_t>(std::max(arity, 0)));
  AddTuplesToStats(&stats, tuples);
  return stats;
}

void AddTuplesToStats(RelationStats* stats, const std::vector<Tuple>& tuples) {
  stats->rows += static_cast<int64_t>(tuples.size());
  for (const Tuple& tuple : tuples) {
    for (size_t c = 0; c < tuple.size() && c < stats->columns.size(); ++c) {
      AddString(&stats->columns[c], tuple[c]);
    }
  }
}

std::string EncodeRelationStats(const RelationStats& stats) {
  std::string out = "rstats 1 " + std::to_string(stats.arity) + " " +
                    std::to_string(stats.rows) + "\n";
  for (const ColumnStats& col : stats.columns) {
    out += "col " + std::to_string(col.total_chars) + " " +
           std::to_string(col.max_len) + "\nhist";
    for (int64_t h : col.len_hist) {
      out += ' ';
      out += std::to_string(h);
    }
    int nonzero = 0;
    for (int64_t f : col.char_freq) nonzero += f != 0 ? 1 : 0;
    out += "\nfreq " + std::to_string(nonzero);
    for (int b = 0; b < 256; ++b) {
      if (col.char_freq[static_cast<size_t>(b)] == 0) continue;
      out += ' ';
      out += std::to_string(b);
      out += ' ';
      out += std::to_string(col.char_freq[static_cast<size_t>(b)]);
    }
    out += "\npfx " + std::string(col.prefixes_saturated ? "1" : "0") + " " +
           std::to_string(col.prefixes.size());
    for (const std::string& p : col.prefixes) {
      out += ' ';
      out += std::to_string(p.size());
      out += ':';
      out += p;
    }
    out += "\n";
  }
  return out;
}

Result<RelationStats> DecodeRelationStats(const std::string& text) {
  Cursor cur(text);
  STRDB_ASSIGN_OR_RETURN(std::string magic, cur.Word());
  if (magic != "rstats") return Status::InvalidArgument("stats: bad magic");
  STRDB_ASSIGN_OR_RETURN(int64_t version, cur.Int());
  if (version != 1) return Status::InvalidArgument("stats: bad version");
  RelationStats stats;
  STRDB_ASSIGN_OR_RETURN(int64_t arity, cur.Int());
  STRDB_ASSIGN_OR_RETURN(stats.rows, cur.Int());
  if (arity < 0 || arity > 1024) {
    return Status::InvalidArgument("stats: bad arity");
  }
  stats.arity = static_cast<int>(arity);
  stats.columns.resize(static_cast<size_t>(arity));
  for (ColumnStats& col : stats.columns) {
    STRDB_ASSIGN_OR_RETURN(std::string tag, cur.Word());
    if (tag != "col") return Status::InvalidArgument("stats: expected col");
    STRDB_ASSIGN_OR_RETURN(col.total_chars, cur.Int());
    STRDB_ASSIGN_OR_RETURN(col.max_len, cur.Int());
    STRDB_ASSIGN_OR_RETURN(tag, cur.Word());
    if (tag != "hist") return Status::InvalidArgument("stats: expected hist");
    for (int64_t& h : col.len_hist) {
      STRDB_ASSIGN_OR_RETURN(h, cur.Int());
    }
    STRDB_ASSIGN_OR_RETURN(tag, cur.Word());
    if (tag != "freq") return Status::InvalidArgument("stats: expected freq");
    STRDB_ASSIGN_OR_RETURN(int64_t nonzero, cur.Int());
    for (int64_t i = 0; i < nonzero; ++i) {
      STRDB_ASSIGN_OR_RETURN(int64_t byte, cur.Int());
      STRDB_ASSIGN_OR_RETURN(int64_t count, cur.Int());
      if (byte < 0 || byte > 255) {
        return Status::InvalidArgument("stats: bad freq byte");
      }
      col.char_freq[static_cast<size_t>(byte)] = count;
    }
    STRDB_ASSIGN_OR_RETURN(tag, cur.Word());
    if (tag != "pfx") return Status::InvalidArgument("stats: expected pfx");
    STRDB_ASSIGN_OR_RETURN(int64_t saturated, cur.Int());
    col.prefixes_saturated = saturated != 0;
    STRDB_ASSIGN_OR_RETURN(int64_t num_prefixes, cur.Int());
    for (int64_t i = 0; i < num_prefixes; ++i) {
      STRDB_ASSIGN_OR_RETURN(std::string p, cur.Str());
      col.prefixes.insert(std::move(p));
    }
  }
  return stats;
}

}  // namespace strdb
