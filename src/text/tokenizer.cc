#include "text/tokenizer.h"

#include <algorithm>
#include <unordered_map>

#include "base/check.h"
#include "base/fileio.h"
#include "base/strings.h"
#include "text/normalizer.h"

namespace sdea::text {
namespace {

/// A distinct corpus word: its initial symbols and corpus frequency.
struct TrainWord {
  std::vector<std::string> symbols;
  int64_t freq = 0;
};

/// Splits a word into initial WordPiece symbols: first byte-run plain,
/// continuations prefixed with "##". Multi-byte UTF-8 sequences are kept as
/// single symbols.
std::vector<std::string> InitialSymbols(const std::string& word) {
  std::vector<std::string> symbols;
  size_t i = 0;
  while (i < word.size()) {
    size_t len = 1;
    const unsigned char c = static_cast<unsigned char>(word[i]);
    if ((c & 0xE0) == 0xC0) len = 2;
    else if ((c & 0xF0) == 0xE0) len = 3;
    else if ((c & 0xF8) == 0xF0) len = 4;
    len = std::min(len, word.size() - i);
    std::string sym = word.substr(i, len);
    if (i > 0) sym = "##" + sym;
    symbols.push_back(std::move(sym));
    i += len;
  }
  return symbols;
}

/// Concatenates two adjacent symbols, dropping the continuation prefix of
/// the right-hand side.
std::string MergeSymbols(const std::string& a, const std::string& b) {
  std::string rhs = b;
  if (StartsWith(rhs, "##")) rhs = rhs.substr(2);
  return a + rhs;
}

/// BPE merge bookkeeping over interned symbols. Every adjacent symbol pair
/// of the corpus words is keyed by (left id, right id) and keeps its
/// corpus-weighted count and the words that may hold it. A merge re-counts
/// only the words that hold the chosen pair, so the counts always equal a
/// full recount over every word, and a max-heap picks the same pair as a
/// full scan: the highest count, ties to the smallest joined key
/// left + "\x01" + right.
class PairMerger {
 public:
  explicit PairMerger(const std::vector<TrainWord>& words) {
    words_.reserve(words.size());
    for (const TrainWord& w : words) {
      std::vector<int32_t> ids;
      ids.reserve(w.symbols.size());
      for (const std::string& s : w.symbols) ids.push_back(Intern(s));
      words_.push_back(Word{std::move(ids), w.freq});
    }
    for (size_t w = 0; w < words_.size(); ++w) {
      ++visit_;
      AddPairs(static_cast<int32_t>(w));
    }
    Publish();
  }

  /// The pair to merge next, or -1 when no adjacent pair is left.
  int32_t Best() {
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      if (pairs_[static_cast<size_t>(top.pair)].count == top.count) {
        return top.pair;
      }
      // Stale: the pair's count changed after this entry was pushed.
      std::pop_heap(heap_.begin(), heap_.end(), HeapLess{&pairs_});
      heap_.pop_back();
    }
    return -1;
  }

  int64_t count(int32_t pair) const {
    return pairs_[static_cast<size_t>(pair)].count;
  }

  /// Rewrites every occurrence of `pair` left to right, without overlap,
  /// and returns the merged symbol.
  std::string Merge(int32_t pair) {
    ++merge_;
    const int32_t left = pairs_[static_cast<size_t>(pair)].left;
    const int32_t right = pairs_[static_cast<size_t>(pair)].right;
    std::string merged_symbol =
        MergeSymbols(symbols_[static_cast<size_t>(left)],
                     symbols_[static_cast<size_t>(right)]);
    const int32_t merged = Intern(merged_symbol);
    // No word holds the pair after the rewrite, so its list is spent.
    const std::vector<int32_t> holders =
        std::move(pairs_[static_cast<size_t>(pair)].words);
    pairs_[static_cast<size_t>(pair)].words.clear();
    for (const int32_t w : holders) {
      Word& word = words_[static_cast<size_t>(w)];
      // A listed word may have lost the pair to an earlier merge, or be
      // listed twice after losing and regaining it; the rewrite below
      // leaves no occurrence, so the second listing is skipped too.
      if (!Holds(word.symbols, left, right)) continue;
      ++visit_;
      RemovePairs(w);
      std::vector<int32_t>& sym = word.symbols;
      for (size_t i = 0; i + 1 < sym.size();) {
        if (sym[i] == left && sym[i + 1] == right) {
          sym[i] = merged;
          sym.erase(sym.begin() + static_cast<int64_t>(i) + 1);
        } else {
          ++i;
        }
      }
      AddPairs(w);
    }
    Publish();
    return merged_symbol;
  }

 private:
  struct Word {
    std::vector<int32_t> symbols;
    int64_t freq;
  };

  struct Pair {
    int32_t left = 0;
    int32_t right = 0;
    std::string key;  ///< left + "\x01" + right: the tie order.
    int64_t count = 0;
    /// Every word that holds the pair, plus words that lost it since.
    std::vector<int32_t> words;
    int64_t seen_by = -1;      ///< The last word visit that met the pair.
    int64_t touched_at = -1;   ///< The last merge round that changed it.
    int64_t count_before = 0;  ///< Its count when that round began.
  };

  struct HeapEntry {
    int64_t count;
    int32_t pair;
  };

  /// Max-heap order: higher count first, then the smaller joined key.
  struct HeapLess {
    const std::vector<Pair>* pairs;
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.count != b.count) return a.count < b.count;
      return (*pairs)[static_cast<size_t>(a.pair)].key >
             (*pairs)[static_cast<size_t>(b.pair)].key;
    }
  };

  int32_t Intern(const std::string& symbol) {
    const auto [it, added] =
        symbol_ids_.emplace(symbol, static_cast<int32_t>(symbols_.size()));
    if (added) symbols_.push_back(symbol);
    return it->second;
  }

  static bool Holds(const std::vector<int32_t>& sym, int32_t left,
                    int32_t right) {
    for (size_t i = 0; i + 1 < sym.size(); ++i) {
      if (sym[i] == left && sym[i + 1] == right) return true;
    }
    return false;
  }

  /// The pair (left, right), created with a zero count on first sight.
  int32_t PairId(int32_t left, int32_t right) {
    const uint64_t key = (static_cast<uint64_t>(left) << 32) |
                         static_cast<uint32_t>(right);
    const auto [it, added] =
        pair_ids_.emplace(key, static_cast<int32_t>(pairs_.size()));
    if (added) {
      Pair& p = pairs_.emplace_back();
      p.left = left;
      p.right = right;
      p.key = symbols_[static_cast<size_t>(left)] + "\x01" +
              symbols_[static_cast<size_t>(right)];
    }
    return it->second;
  }

  /// Adds `delta` to a pair's count, noting its count before this round.
  Pair& Change(int32_t id, int64_t delta) {
    Pair& p = pairs_[static_cast<size_t>(id)];
    if (p.touched_at != merge_) {
      p.touched_at = merge_;
      p.count_before = p.count;
      touched_.push_back(id);
    }
    p.count += delta;
    return p;
  }

  void RemovePairs(int32_t w) {
    const Word& word = words_[static_cast<size_t>(w)];
    for (size_t i = 0; i + 1 < word.symbols.size(); ++i) {
      Change(PairId(word.symbols[i], word.symbols[i + 1]), -word.freq)
          .seen_by = visit_;
    }
  }

  /// Counts the word's pairs and lists the word under each pair it did not
  /// hold before the rewrite (RemovePairs marked those it did).
  void AddPairs(int32_t w) {
    const Word& word = words_[static_cast<size_t>(w)];
    for (size_t i = 0; i + 1 < word.symbols.size(); ++i) {
      Pair& p =
          Change(PairId(word.symbols[i], word.symbols[i + 1]), word.freq);
      if (p.seen_by != visit_) {
        p.seen_by = visit_;
        p.words.push_back(w);
      }
    }
  }

  /// Pushes a heap entry for every pair whose count this round changed,
  /// and drops the word lists of pairs whose count reached zero.
  void Publish() {
    for (const int32_t id : touched_) {
      Pair& p = pairs_[static_cast<size_t>(id)];
      if (p.count == p.count_before) continue;
      if (p.count > 0) {
        heap_.push_back(HeapEntry{p.count, id});
        std::push_heap(heap_.begin(), heap_.end(), HeapLess{&pairs_});
      } else {
        std::vector<int32_t>().swap(p.words);
      }
    }
    touched_.clear();
  }

  std::vector<std::string> symbols_;
  std::unordered_map<std::string, int32_t> symbol_ids_;
  std::vector<Word> words_;
  std::vector<Pair> pairs_;
  std::unordered_map<uint64_t, int32_t> pair_ids_;
  std::vector<HeapEntry> heap_;
  std::vector<int32_t> touched_;
  int64_t merge_ = 0;
  int64_t visit_ = 0;  ///< Counts word visits; one per counted word.
};

}  // namespace

Status SubwordTokenizer::Train(const std::vector<std::string>& corpus,
                               const TokenizerConfig& config) {
  if (corpus.empty()) {
    return Status::InvalidArgument("tokenizer corpus is empty");
  }
  vocab_ = Vocab();
  max_word_bytes_ = config.max_word_bytes;

  // Collect distinct words with frequencies.
  std::unordered_map<std::string, int64_t> word_freq;
  for (const std::string& text : corpus) {
    for (const std::string& w : NormalizeAndSplit(text)) {
      if (static_cast<int64_t>(w.size()) > config.max_word_bytes) continue;
      ++word_freq[w];
    }
  }
  if (word_freq.empty()) {
    return Status::InvalidArgument("tokenizer corpus has no words");
  }

  std::vector<TrainWord> words;
  words.reserve(word_freq.size());
  for (const auto& [w, f] : word_freq) {
    words.push_back(TrainWord{InitialSymbols(w), f});
  }
  // Deterministic order regardless of hash iteration.
  std::sort(words.begin(), words.end(),
            [](const TrainWord& a, const TrainWord& b) {
              if (a.freq != b.freq) return a.freq > b.freq;
              return a.symbols < b.symbols;
            });

  // Base alphabet.
  for (const TrainWord& w : words) {
    for (const std::string& s : w.symbols) vocab_.AddToken(s);
  }

  // Iteratively merge the most frequent adjacent pair.
  PairMerger merger(words);
  for (int64_t merge = 0; merge < config.num_merges; ++merge) {
    const int32_t best = merger.Best();
    if (best < 0 || merger.count(best) < config.min_pair_frequency) break;
    vocab_.AddToken(merger.Merge(best));
  }

  trained_ = true;
  return Status::Ok();
}

std::vector<std::string> SubwordTokenizer::TokenizeWord(
    const std::string& word) const {
  std::vector<std::string> out;
  if (static_cast<int64_t>(word.size()) > max_word_bytes_) {
    out.push_back("[UNK]");
    return out;
  }
  // Greedy longest-match (WordPiece): at each position take the longest
  // vocab entry; fall back to [UNK] for the whole word if any position has
  // no match.
  size_t start = 0;
  while (start < word.size()) {
    size_t end = word.size();
    std::string piece;
    bool found = false;
    while (end > start) {
      std::string candidate = word.substr(start, end - start);
      if (start > 0) candidate = "##" + candidate;
      if (vocab_.Contains(candidate)) {
        piece = std::move(candidate);
        found = true;
        break;
      }
      --end;
    }
    if (!found) {
      return {"[UNK]"};
    }
    out.push_back(std::move(piece));
    start = end;
  }
  return out;
}

std::vector<int64_t> SubwordTokenizer::Encode(std::string_view raw) const {
  SDEA_CHECK_MSG(trained_, "tokenizer used before Train()/Load()");
  std::vector<int64_t> ids;
  for (const std::string& word : NormalizeAndSplit(raw)) {
    for (const std::string& piece : TokenizeWord(word)) {
      ids.push_back(vocab_.GetId(piece));
    }
  }
  return ids;
}

std::vector<int64_t> SubwordTokenizer::EncodeForModel(std::string_view raw,
                                                      int64_t max_len) const {
  SDEA_CHECK_GE(max_len, 1);
  std::vector<int64_t> ids;
  ids.push_back(kClsId);
  for (int64_t id : Encode(raw)) {
    if (static_cast<int64_t>(ids.size()) >= max_len) break;
    ids.push_back(id);
  }
  return ids;
}

Status SubwordTokenizer::Save(const std::string& path) const {
  if (!trained_) return Status::FailedPrecondition("tokenizer not trained");
  std::string out;
  for (int64_t i = 0; i < vocab_.size(); ++i) {
    out += vocab_.GetToken(i);
    out += '\n';
  }
  return WriteStringToFileAtomic(path, out);
}

Status SubwordTokenizer::Load(const std::string& path) {
  SDEA_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  if (lines.size() < static_cast<size_t>(kNumSpecialTokens)) {
    return Status::InvalidArgument("vocab file too small: " + path);
  }
  vocab_ = Vocab();
  for (size_t i = static_cast<size_t>(kNumSpecialTokens); i < lines.size();
       ++i) {
    vocab_.AddToken(lines[i]);
  }
  trained_ = true;
  return Status::Ok();
}

}  // namespace sdea::text
