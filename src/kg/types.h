#ifndef SDEA_KG_TYPES_H_
#define SDEA_KG_TYPES_H_

#include <cstdint>

namespace sdea::kg {

using EntityId = int32_t;
using RelationId = int32_t;
using AttributeId = int32_t;

inline constexpr EntityId kInvalidEntity = -1;

/// (head, relation, tail) — Definition 1's relational triple.
struct RelationalTriple {
  EntityId head;
  RelationId relation;
  EntityId tail;

  bool operator==(const RelationalTriple&) const = default;
};

/// One edge as seen from an entity: the relation and the other endpoint.
/// `outgoing` is true when the entity is the head of the underlying triple.
struct NeighborEdge {
  RelationId relation;
  EntityId neighbor;
  bool outgoing;

  bool operator==(const NeighborEdge&) const = default;
};

}  // namespace sdea::kg

#endif  // SDEA_KG_TYPES_H_
