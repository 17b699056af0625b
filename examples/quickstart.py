"""Quickstart: a transaction-time temporal database in a few lines.

Creates a current table, attaches ArchIS, makes some changes, and asks
temporal questions in XQuery over the (virtual) XML view of the history.

Run:  python examples/quickstart.py
"""

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.xmlkit import serialize


def main() -> None:
    # 1. An ordinary relational database with a current table.
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
            ("title", ColumnType.VARCHAR),
            ("deptno", ColumnType.VARCHAR),
        ],
        primary_key=("id",),
    )

    # 2. Attach ArchIS: from now on every change is archived.
    archis = ArchIS(db, config=ArchISConfig(profile="atlas", umin=0.4))
    archis.track_table("employee", document_name="employees.xml")

    # 3. Live with the data: ordinary inserts, updates, deletes.
    emp = db.table("employee")
    emp.insert((1001, "Bob", 60000, "Engineer", "d01"))
    db.set_date("1995-06-01")
    emp.update_where(lambda r: r["id"] == 1001, {"salary": 70000})
    db.set_date("1995-10-01")
    emp.update_where(
        lambda r: r["id"] == 1001, {"title": "Sr Engineer", "deptno": "d02"}
    )
    db.set_date("1996-02-01")
    emp.update_where(lambda r: r["id"] == 1001, {"title": "TechLeader"})

    # 4. The history is an XML view (paper Figure 3): look at it.
    print("== the H-document (temporally grouped history) ==")
    print(serialize(archis.publish("employee"), indent=2))

    # 5. Ask temporal questions in XQuery; ArchIS translates them to
    #    SQL/XML over the H-tables.
    print("\n== QUERY: Bob's title history (temporal projection) ==")
    for element in archis.xquery(
        'for $t in doc("employees.xml")/employees/employee[name="Bob"]/title '
        "return $t"
    ).rows:
        print(" ", serialize(element))

    print("\n== QUERY: Bob's salary on 1995-07-15 (snapshot) ==")
    for element in archis.xquery(
        'for $s in doc("employees.xml")/employees/employee[name="Bob"]'
        '/salary[tstart(.) <= xs:date("1995-07-15") and '
        'tend(.) >= xs:date("1995-07-15")] return $s'
    ).rows:
        print(" ", serialize(element))

    print("\n== the SQL/XML the translator emitted for the snapshot ==")
    print(
        archis.translate(
            'for $s in doc("employees.xml")/employees/employee[name="Bob"]'
            '/salary[tstart(.) <= xs:date("1995-07-15") and '
            'tend(.) >= xs:date("1995-07-15")] return $s'
        )
    )


if __name__ == "__main__":
    main()
