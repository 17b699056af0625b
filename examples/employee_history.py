"""The paper's Section 4 queries, end to end.

Builds the Table 1 / Table 2 example database (employees + departments),
archives it with ArchIS, and runs all eight example queries — temporal
projection, snapshot, slicing, join, aggregate, restructuring, since, and
period containment.  Queries outside the SQL/XML-translatable subset fall
back to native XQuery evaluation over the published views automatically.

Run:  python examples/employee_history.py
"""

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.xmlkit import serialize


def build() -> ArchIS:
    db = Database()
    db.set_date("1992-01-01")
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
    db.create_table(
        "dept",
        [
            ("deptid", ColumnType.INT),
            ("deptno", ColumnType.VARCHAR),
            ("deptname", ColumnType.VARCHAR),
            ("mgrno", ColumnType.INT),
        ],
        primary_key=("deptid",),
    )
    archis = ArchIS(db, config=ArchISConfig(profile="atlas"))
    archis.track_table("employee", document_name="employees.xml")
    archis.track_table("dept", key="deptid", document_name="depts.xml")

    dept = db.table("dept")
    db.set_date("1992-01-01")
    dept.insert((2, "d02", "RD", 3402))
    db.set_date("1993-01-01")
    dept.insert((3, "d03", "Sales", 4748))
    db.set_date("1994-01-01")
    dept.insert((1, "d01", "QA", 2501))

    emp = db.table("employee")
    db.set_date("1995-01-01")
    emp.insert((1001, "Bob", 60000, "Engineer", "d01"))
    db.set_date("1995-06-01")
    emp.update_where(lambda r: r["id"] == 1001, {"salary": 70000})
    db.set_date("1995-10-01")
    emp.update_where(
        lambda r: r["id"] == 1001, {"title": "Sr Engineer", "deptno": "d02"}
    )
    db.set_date("1996-02-01")
    emp.update_where(lambda r: r["id"] == 1001, {"title": "TechLeader"})
    db.set_date("1997-01-01")
    dept.update_where(lambda r: r["deptid"] == 2, {"mgrno": 1009})
    emp.delete_where(lambda r: r["id"] == 1001)
    db.set_date("1997-06-15")
    archis.apply_pending()
    return archis


def show(title: str, result) -> None:
    print(f"\n== {title} ==")
    results = result.rows
    if not results:
        print("  (empty)")
    for item in results:
        rendered = serialize(item) if hasattr(item, "name") else str(item)
        print(" ", rendered)


def main() -> None:
    archis = build()

    show(
        "QUERY 1 (temporal projection): Bob's title history",
        archis.xquery(
            'element title_history{ for $t in doc("employees.xml")/employees'
            '/employee[name="Bob"]/title return $t }'
        ),
    )
    show(
        "QUERY 2 (temporal snapshot): managers on 1994-05-06",
        archis.xquery(
            'for $m in doc("depts.xml")/depts/dept/mgrno'
            '[tstart(.)<=xs:date("1994-05-06") and '
            'tend(.) >= xs:date("1994-05-06")] return $m'
        ),
    )
    show(
        "QUERY 3 (temporal slicing): employees working in "
        "1994-05-06..1995-05-06",
        archis.xquery(
            'for $e in doc("employees.xml")/employees/employee[ toverlaps(.,'
            ' telement( xs:date("1994-05-06"), xs:date("1995-05-06") ) ) ]'
            " return $e/name"
        ),
    )
    show(
        "QUERY 4 (temporal join): who each manager managed (fallback path)",
        archis.xquery(
            'element manages{ for $d in doc("depts.xml")/depts/dept'
            " for $m in $d/mgrno return element manage {$d/deptno, $m,"
            ' element employees { for $e in doc("employees.xml")/employees'
            "/employee where $e/deptno = $d/deptno and"
            " not(empty(overlapinterval($e, $m)))"
            " return ($e/name, overlapinterval($e,$m)) }}}"
        ),
    )
    show(
        "QUERY 5 (temporal aggregate): history of the average salary",
        archis.xquery(
            'let $s := doc("employees.xml")/employees/employee/salary '
            "return tavg($s)"
        ),
    )
    show(
        "QUERY 6 (restructuring): Bob's longest period with unchanged "
        "title AND department",
        archis.xquery(
            'for $e in doc("employees.xml")/employees/employee[name="Bob"]'
            " let $d := $e/deptno let $t := $e/title"
            " let $overlaps := restructure($d, $t) return $overlaps"
        ),
    )
    show(
        "QUERY 7 (since): Sr Engineers in d02 since they joined it",
        archis.xquery(
            'for $e in doc("employees.xml")/employees/employee'
            ' let $m:= $e/title[.="Sr Engineer" and tend(.)=current-date()]'
            ' let $d:=$e/deptno[.="d02" and tcontains($m, .)]'
            " where not(empty($d)) and not(empty($m))"
            " return <employee>{$e/id, $e/name}</employee>"
        ),
    )
    show(
        "QUERY 8 (period containment): employees with exactly Bob's "
        "department history",
        archis.xquery(
            'for $e1 in doc("employees.xml")/employees/employee[name = "Bob"]'
            ' for $e2 in doc("employees.xml")/employees/employee'
            '[name != "Bob"]'
            " where (every $d1 in $e1/deptno satisfies some $d2 in $e2/deptno"
            " satisfies (string($d1)=string($d2) and tequals($d2,$d1))) and"
            " (every $d2 in $e2/deptno satisfies some $d1 in $e1/deptno"
            " satisfies (string($d2)=string($d1) and tequals($d1,$d2)))"
            " return <employee>{$e2/name}</employee>"
        ),
    )


if __name__ == "__main__":
    main()
