-- pqo:catalog tpch_skew
-- pqo:dialect postgres
-- TPC-H Q9 style: product-type profit through partsupp, an 8-way join;
-- six dimensions.
SELECT count(*)
FROM part p
  JOIN partsupp ps ON p.part_pk = ps.part_fk
  JOIN lineitem l ON ps.part_fk = l.part_fk
  JOIN supplier s ON l.supplier_fk = s.supplier_pk
  JOIN orders o ON l.orders_fk = o.orders_pk
  JOIN customer c ON o.customer_fk = c.customer_pk
  JOIN nation n ON s.nation_fk = n.nation_pk
  JOIN region r ON n.region_fk = r.region_pk
WHERE p.p_size <= $1
  AND ps.ps_supplycost <= $2
  AND l.l_extendedprice <= $3
  AND s.s_acctbal <= $4
  AND o.o_orderdate >= $5
  AND c.c_acctbal <= $6
GROUP BY n.nation_pk
