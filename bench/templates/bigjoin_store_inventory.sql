-- pqo:catalog tpcds
-- pqo:dialect postgres
-- Store sales against item inventory by warehouse and customer geography,
-- an 8-way snowflake join; four dimensions.
SELECT count(*)
FROM store_sales ss
  JOIN date_dim d ON ss.date_dim_fk = d.date_dim_pk
  JOIN item i ON ss.item_fk = i.item_pk
  JOIN customer c ON ss.customer_fk = c.customer_pk
  JOIN customer_address ca ON c.customer_address_fk = ca.customer_address_pk
  JOIN store s ON ss.store_fk = s.store_pk
  JOIN inventory inv ON i.item_pk = inv.item_fk
  JOIN warehouse w ON inv.warehouse_fk = w.warehouse_pk
WHERE ss.ss_sales_price <= $1
  AND i.i_current_price <= $2
  AND d.d_year >= $3
  AND inv.inv_quantity_on_hand <= $4
GROUP BY d.d_moy
