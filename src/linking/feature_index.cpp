#include "linking/feature_index.h"

#include <bit>
#include <functional>
#include <string_view>

namespace sm::linking {

namespace {

/// splitmix64's finalizer: spreads an integer key over the low bits the
/// table probes with.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Open-addressing (linear probing) map from a key to its first-appearance
/// id. The table holds ids and their hashes only; the caller keeps the keys
/// and answers whether id `v`'s key equals the probe. Sized for at most
/// `max_keys` keys at load <= 1/2, so it never grows.
class IdTable {
 public:
  explicit IdTable(std::size_t max_keys)
      : mask_(std::bit_ceil(2 * max_keys + 2) - 1), slots_(mask_ + 1, kEmpty) {
    hashes_.reserve(max_keys);
  }

  /// The id of the key hashing to `hash` for which `equal(id)` holds;
  /// a new id (the number of keys so far) when there is none.
  template <class Equal>
  std::uint32_t find_or_add(std::uint64_t hash, const Equal& equal) {
    for (std::size_t s = hash & mask_;; s = (s + 1) & mask_) {
      const std::uint32_t id = slots_[s];
      if (id == kEmpty) {
        slots_[s] = static_cast<std::uint32_t>(hashes_.size());
        hashes_.push_back(hash);
        return slots_[s];
      }
      if (hashes_[id] == hash && equal(id)) return id;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  std::size_t mask_;
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;
};

/// Integer keys, held as they are.
struct IntegerKeys {
  std::vector<std::uint64_t> keys;

  static bool present(const FeatureKey&) { return true; }
  static std::uint64_t hash(const FeatureKey& key) { return mix(key.number); }
  bool equal(std::uint32_t id, const FeatureKey& key) const {
    return keys[id] == key.number;
  }
  void add(const FeatureKey& key) { keys.push_back(key.number); }
};

/// String keys, each distinct one copied once into a shared arena.
struct TextKeys {
  std::string arena;
  std::vector<std::size_t> offsets{0};  // id -> [offsets[id], offsets[id+1])

  static bool present(const FeatureKey& key) { return !key.text.empty(); }
  static std::uint64_t hash(const FeatureKey& key) {
    return std::hash<std::string_view>{}(key.text);
  }
  bool equal(std::uint32_t id, const FeatureKey& key) const {
    return std::string_view(arena).substr(
               offsets[id], offsets[id + 1] - offsets[id]) == key.text;
  }
  void add(const FeatureKey& key) {
    arena.append(key.text);
    offsets.push_back(arena.size());
  }
};

/// Fills `column` with first-appearance value ids over ascending CertId and
/// returns each value's certificate count.
template <class Keys>
std::vector<std::uint32_t> intern_feature(const scan::CertTable& certs,
                                          const std::vector<bool>& include,
                                          std::size_t included,
                                          Feature feature,
                                          bool exclude_ip_common_names,
                                          std::vector<std::uint32_t>& column) {
  Keys keys;
  IdTable table(included);
  KeyBuffer buffer;
  std::vector<std::uint32_t> counts;
  for (scan::CertId id = 0; id < certs.size(); ++id) {
    if (!include[id]) continue;
    const FeatureKey key =
        feature_key(certs[id], feature, exclude_ip_common_names, buffer);
    if (!Keys::present(key)) continue;
    const std::uint32_t value = table.find_or_add(
        Keys::hash(key), [&](std::uint32_t v) { return keys.equal(v, key); });
    if (value == counts.size()) {
      keys.add(key);
      counts.push_back(0);
    }
    column[id] = value;
    ++counts[value];
  }
  return counts;
}

}  // namespace

FeatureIndex::FeatureIndex(const scan::CertTable& certs,
                           const std::vector<bool>& include,
                           bool exclude_ip_common_names,
                           util::ThreadPool* pool)
    : cert_count_(certs.size()), per_feature_(kAllFeatures.size()) {
  if (pool == nullptr) pool = &util::ThreadPool::global();
  std::size_t included = 0;
  for (scan::CertId id = 0; id < cert_count_; ++id) included += include[id];
  // One feature per chunk: features are independent.
  pool->parallel_for(
      kAllFeatures.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t fi = begin; fi < end; ++fi) {
          const Feature feature = kAllFeatures[fi];
          PerFeature& out = per_feature_[index(feature)];
          out.column.assign(cert_count_, kNoValue);
          const std::vector<std::uint32_t> counts =
              is_integer_feature(feature)
                  ? intern_feature<IntegerKeys>(certs, include, included,
                                                feature,
                                                exclude_ip_common_names,
                                                out.column)
                  : intern_feature<TextKeys>(certs, include, included, feature,
                                             exclude_ip_common_names,
                                             out.column);
          // CSR: offsets from counts, then fill members in cert order.
          out.offsets.assign(counts.size() + 1, 0);
          for (std::size_t v = 0; v < counts.size(); ++v) {
            out.offsets[v + 1] = out.offsets[v] + counts[v];
          }
          out.members.resize(out.offsets.back());
          std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                            out.offsets.end() - 1);
          for (scan::CertId id = 0; id < cert_count_; ++id) {
            const std::uint32_t v = out.column[id];
            if (v != kNoValue) out.members[cursor[v]++] = id;
          }
        }
      });
}

}  // namespace sm::linking
