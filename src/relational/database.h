#ifndef CCPI_RELATIONAL_DATABASE_H_
#define CCPI_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "util/status.h"

namespace ccpi {

/// A named collection of relations: predicate name -> Relation.
///
/// Predicates are created on first mention with the arity of that mention;
/// subsequent mentions must agree. A predicate that was never mentioned is
/// treated as an empty relation of the arity the reader asks for, which is
/// exactly the paper's convention (a missing EDB relation is empty).
///
/// MVCC snapshots via copy-on-write: relations are held by shared_ptr, so
/// copying a Database copies only the name->pointer map (O(#predicates),
/// no tuple is touched) and the copy *is* an immutable snapshot — it pins
/// every relation at its content version as of the copy. A mutation of
/// either database (Insert/Erase/GetMutable) first clones any relation it
/// still shares with another handle, so no snapshot ever observes a write
/// that happened after it was taken. Together with the content-version
/// stamps (Relation::version(): equal versions imply equal contents) this
/// is the substrate of the manager's pipelined episode scheduler — many
/// episodes read their own admission snapshot while commits mutate the
/// live database (see docs/concurrency.md).
///
/// Thread safety: the const interface (Get, Contains, PredicateNames, ...)
/// is safe from any number of threads as long as no thread mutates *this
/// handle* concurrently; distinct handles (snapshots) are independent —
/// mutating one while another is being read is safe, because the mutation
/// clones shared relations instead of writing through them. Taking the
/// copy itself and mutating must happen on one thread (or be externally
/// serialized). The empty relations handed out for absent predicates come
/// from a process-wide cache with stable addresses.
class Database {
 public:
  Database() = default;

  /// Inserts `t` into `pred`, creating the relation if needed.
  /// Returns InvalidArgument on arity mismatch with an existing relation,
  /// otherwise OK (idempotent for duplicate tuples).
  Status Insert(const std::string& pred, Tuple t);

  /// Erases `t` from `pred` if present.
  Status Erase(const std::string& pred, const Tuple& t);

  bool Contains(const std::string& pred, const Tuple& t) const;

  /// The relation for `pred`, or an empty relation of `arity` if absent.
  /// The reference stays valid until this handle mutates `pred` (a
  /// copy-on-write clone replaces the object) or the last handle sharing
  /// the relation is destroyed.
  const Relation& Get(const std::string& pred, size_t arity) const;

  /// Mutable relation for `pred`, created with `arity` if absent. Clones
  /// the relation first when it is still shared with a snapshot, so writes
  /// through the pointer never leak into copies taken earlier.
  Relation* GetMutable(const std::string& pred, size_t arity);

  bool Has(const std::string& pred) const { return rels_.count(pred) > 0; }

  /// Names of all predicates with at least one recorded relation (possibly
  /// empty after erasures), in sorted order.
  std::vector<std::string> PredicateNames() const;

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Freezes every relation (see Relation::FreezeIndexes): builds the
  /// column indexes that are missing, so a parallel read phase that follows
  /// never contends on lazy index builds. Writes keep frozen relations'
  /// indexes current, so re-freezing after them builds nothing.
  void FreezeIndexes() const;

  std::string ToString() const;

 private:
  /// Returns the relation slot for mutation, cloning it first if any other
  /// Database handle still shares it (copy-on-write).
  Relation* Own(std::shared_ptr<Relation>* slot);

  /// Shared-ownership store: a Database copy shares every Relation with
  /// the original until one side mutates it.
  std::map<std::string, std::shared_ptr<Relation>> rels_;
};

}  // namespace ccpi

#endif  // CCPI_RELATIONAL_DATABASE_H_
