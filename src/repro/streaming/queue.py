"""Message queue linking data ingestion to the analytics engine.

Production deployments put a message queue (Kafka, Flume, RabbitMQ…)
between web servers and the streaming analytics system (paper
section 2.1); the paper also notes these queues hold *persistent
connections*, so no handshake cost applies between the web server and
the analytics server (footnote 2).

This is a Kafka-flavoured broker: named topics with hash-partitioned
logs, offset-tracking consumer groups, and at-least-once delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Message", "Topic", "MessageBroker", "Consumer"]


@dataclass(frozen=True)
class Message:
    """One record in a topic partition."""

    key: Optional[str]
    value: Any
    timestamp_ms: float
    offset: int
    partition: int


class Topic:
    """An append-only log split into hash-keyed partitions."""

    def __init__(self, name: str, num_partitions: int = 1):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.name = name
        self.num_partitions = num_partitions
        self._logs: List[List[Message]] = [[] for _ in range(num_partitions)]

    def _partition_for(self, key: Optional[str]) -> int:
        if key is None:
            # Round-robin by total record count.
            return sum(len(log) for log in self._logs) % self.num_partitions
        return hash(key) % self.num_partitions

    def append(
        self, key: Optional[str], value: Any, timestamp_ms: float
    ) -> Message:
        partition = self._partition_for(key)
        log = self._logs[partition]
        message = Message(
            key=key,
            value=value,
            timestamp_ms=timestamp_ms,
            offset=len(log),
            partition=partition,
        )
        log.append(message)
        return message

    def read(self, partition: int, offset: int, max_count: int) -> List[Message]:
        if not 0 <= partition < self.num_partitions:
            raise IndexError("topic %s has no partition %d" % (self.name, partition))
        return self._logs[partition][offset:offset + max_count]

    def end_offset(self, partition: int) -> int:
        return len(self._logs[partition])


class MessageBroker:
    """Holds topics; producers publish, consumer groups poll."""

    def __init__(self):
        self._topics: Dict[str, Topic] = {}
        self._group_offsets: Dict[Tuple[str, str, int], int] = {}

    def create_topic(self, name: str, num_partitions: int = 1) -> Topic:
        if name in self._topics:
            raise ValueError("topic %r already exists" % name)
        topic = Topic(name, num_partitions)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        if name not in self._topics:
            raise KeyError("no topic named %r" % name)
        return self._topics[name]

    def publish(
        self,
        topic_name: str,
        value: Any,
        key: Optional[str] = None,
        timestamp_ms: float = 0.0,
    ) -> Message:
        return self.topic(topic_name).append(key, value, timestamp_ms)

    def poll(
        self,
        group: str,
        topic_name: str,
        max_per_partition: int = 1000,
    ) -> List[Message]:
        """Fetch new messages for a consumer group, advancing offsets."""
        topic = self.topic(topic_name)
        out: List[Message] = []
        for partition in range(topic.num_partitions):
            key = (group, topic_name, partition)
            offset = self._group_offsets.get(key, 0)
            batch = topic.read(partition, offset, max_per_partition)
            out.extend(batch)
            self._group_offsets[key] = offset + len(batch)
        out.sort(key=lambda m: (m.timestamp_ms, m.partition, m.offset))
        return out

    def lag(self, group: str, topic_name: str) -> int:
        """Unconsumed messages across partitions for a group."""
        topic = self.topic(topic_name)
        total = 0
        for partition in range(topic.num_partitions):
            offset = self._group_offsets.get((group, topic_name, partition), 0)
            total += topic.end_offset(partition) - offset
        return total


class Consumer:
    """A convenience wrapper binding a broker, group and topic."""

    def __init__(self, broker: MessageBroker, group: str, topic: str):
        self.broker = broker
        self.group = group
        self.topic = topic

    def poll(self, max_per_partition: int = 1000) -> List[Message]:
        return self.broker.poll(self.group, self.topic, max_per_partition)

    def lag(self) -> int:
        return self.broker.lag(self.group, self.topic)
