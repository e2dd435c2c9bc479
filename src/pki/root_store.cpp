#include "pki/root_store.h"

namespace sm::pki {

SubjectKey subject_lookup_key(const x509::Name& subject) {
  return subject.encode();
}

void RootStore::add(x509::Certificate root) {
  util::Bytes fp = root.fingerprint_sha256();
  if (by_fingerprint_.contains(fp)) return;
  const std::size_t index = roots_.size();
  by_fingerprint_.emplace(std::move(fp), index);
  by_subject_[subject_lookup_key(root.subject)].push_back(index);
  roots_.push_back(std::move(root));
}

std::span<const std::size_t> RootStore::matches(const SubjectKey& key) const {
  const auto it = by_subject_.find(key);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::vector<const x509::Certificate*> RootStore::find_by_subject(
    const x509::Name& subject) const {
  std::vector<const x509::Certificate*> out;
  const std::span<const std::size_t> indices =
      matches(subject_lookup_key(subject));
  out.reserve(indices.size());
  for (const std::size_t index : indices) out.push_back(&roots_[index]);
  return out;
}

bool RootStore::contains(const util::Bytes& fingerprint_sha256) const {
  return by_fingerprint_.contains(fingerprint_sha256);
}

void IntermediatePool::add(x509::Certificate intermediate) {
  util::Bytes fp = intermediate.fingerprint_sha256();
  if (by_fingerprint_.contains(fp)) return;
  const std::size_t index = pool_.size();
  by_fingerprint_.emplace(std::move(fp), index);
  by_subject_[subject_lookup_key(intermediate.subject)].push_back(index);
  pool_.push_back(std::move(intermediate));
}

std::span<const std::size_t> IntermediatePool::matches(
    const SubjectKey& key) const {
  const auto it = by_subject_.find(key);
  if (it == by_subject_.end()) return {};
  return it->second;
}

std::vector<const x509::Certificate*> IntermediatePool::find_by_subject(
    const x509::Name& subject) const {
  std::vector<const x509::Certificate*> out;
  const std::span<const std::size_t> indices =
      matches(subject_lookup_key(subject));
  out.reserve(indices.size());
  for (const std::size_t index : indices) out.push_back(&pool_[index]);
  return out;
}

}  // namespace sm::pki
