-- pqo:catalog tpch_skew
-- pqo:dialect postgres
-- TPC-H Q5 style: local supplier volume, widened by part and its supply
-- offers to an 8-way join; five dimensions.
SELECT count(*)
FROM customer c
  JOIN orders o ON c.customer_pk = o.customer_fk
  JOIN lineitem l ON o.orders_pk = l.orders_fk
  JOIN supplier s ON l.supplier_fk = s.supplier_pk
  JOIN nation n ON s.nation_fk = n.nation_pk
  JOIN region r ON n.region_fk = r.region_pk
  JOIN part p ON l.part_fk = p.part_pk
  JOIN partsupp ps ON p.part_pk = ps.part_fk
WHERE c.c_acctbal <= $1
  AND o.o_totalprice <= $2
  AND l.l_shipdate >= $3
  AND s.s_acctbal <= $4
  AND p.p_size <= $5
GROUP BY n.nation_pk
