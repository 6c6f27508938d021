-- pqo:catalog tpch_skew
-- pqo:dialect postgres
-- TPC-H Q8 style: national market share, an 8-way join with two nation
-- aliases (customer side and supplier side); four dimensions.
SELECT o.o_orderdate, l.l_extendedprice
FROM part p
  JOIN lineitem l ON p.part_pk = l.part_fk
  JOIN supplier s ON l.supplier_fk = s.supplier_pk
  JOIN orders o ON l.orders_fk = o.orders_pk
  JOIN customer c ON o.customer_fk = c.customer_pk
  JOIN nation n1 ON c.nation_fk = n1.nation_pk
  JOIN region r ON n1.region_fk = r.region_pk
  JOIN nation n2 ON s.nation_fk = n2.nation_pk
WHERE p.p_size <= $1
  AND o.o_orderdate <= $2
  AND l.l_extendedprice <= $3
  AND c.c_acctbal <= $4
ORDER BY o.o_orderdate
