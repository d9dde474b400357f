"""Alerters on top of maintained views ([BC79] motivation).

Buneman and Clemons proposed *alerters*: monitors that report when "a
state of the database, described by the view definition, has been
reached".  A maintained materialized view makes alerting trivial — the
view's delta IS the alert stream.  This example watches a sensor
network for readings that exceed a per-sensor threshold by more than
10 (an ``x op y + c`` condition, Section 4's atom shape) and prints an
alert whenever the alarm view gains or loses a tuple.

It also demonstrates the filter payoff emphasized by the paper.  The
two-variable condition alone cannot screen any reading (an unbounded
threshold might always match), so the alerter's author adds the
redundant bound ``value > 90`` — implied by the known threshold range
80–120 — and the Section 4 filter then proves most readings irrelevant
without touching the sensor table at all.

Run:  python examples/alerter.py
"""

import random

from repro import Database, BaseRef, ViewMaintainer
from repro.algebra.relation import Delta


def main() -> None:
    rng = random.Random(101)
    db = Database()
    db.create_relation(
        "sensor",
        ["sensor_id", "threshold"],
        [(i, rng.randint(80, 120)) for i in range(8)],
    )
    db.create_relation("reading", ["sensor_id", "value"], [])

    maintainer = ViewMaintainer(db)
    alarms = maintainer.define_view(
        "alarms",
        BaseRef("sensor")
        .join(BaseRef("reading"))
        .select("value > threshold + 10 and value > 90")
        .project(["sensor_id", "value"]),
    )

    # --- Subscribe to alarm-view changes: the alerter itself ----------
    fired: list[str] = []
    baseline = {values for values in alarms.contents.value_tuples()}

    def alert_hook(txn_id: int, deltas: dict) -> None:
        nonlocal baseline
        current = set(alarms.contents.value_tuples())
        for sensor_id, value in sorted(current - baseline):
            fired.append(
                f"  ALERT (txn {txn_id}): sensor {sensor_id} read {value}"
            )
        for sensor_id, value in sorted(baseline - current):
            fired.append(
                f"  clear (txn {txn_id}): sensor {sensor_id} back in range"
            )
        baseline = current

    # Registered after the maintainer, so it observes the updated view.
    db.add_commit_hook(alert_hook)

    print("Thresholds:",
          dict(sorted(db.relation("sensor").value_tuples())))
    print("\nStreaming 60 readings ...\n")

    for _ in range(60):
        with db.transact() as txn:
            txn.insert(
                "reading", (rng.randrange(8), rng.randint(0, 140))
            )

    for line in fired:
        print(line)

    stats = maintainer.stats("alarms")
    print(
        f"\n{stats['tuples_screened']} readings screened, "
        f"{stats['tuples_irrelevant']} provably irrelevant, "
        f"{len(fired)} alert events, "
        f"{len(alarms.contents)} alarms currently active."
    )


if __name__ == "__main__":
    main()
